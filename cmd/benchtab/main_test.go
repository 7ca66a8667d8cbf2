package main

import (
	"bytes"
	"testing"
)

func TestUsageExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no mode selected", []string{}},
		{"unknown machine", []string{"-machine", "vax", "-all"}},
		{"unknown flag", []string{"-frobnicate"}},
		{"stray arguments", []string{"-all", "stray"}},
		{"retired artifact flag", []string{"-validate", "BENCH.json"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code %d, want 2\nstderr: %s", code, stderr.String())
			}
		})
	}
}
