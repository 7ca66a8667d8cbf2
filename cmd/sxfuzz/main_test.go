package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"signext/internal/difftest"
)

func TestRunCleanCampaign(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-seed", "1", "-count", "20"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var res difftest.CampaignResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("verdict is not one-line JSON: %v\n%s", err, stdout.String())
	}
	if !res.OK || res.Programs != 20 || res.Failures != 0 {
		t.Fatalf("unexpected verdict: %+v", res)
	}
	if strings.Count(strings.TrimSpace(stdout.String()), "\n") != 0 {
		t.Fatalf("verdict spans multiple lines:\n%s", stdout.String())
	}
}

func TestRunChaosSelfCheck(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-seed", "1", "-count", "12", "-chaos", "-minimize",
		"-repros", "1", "-out", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var res difftest.CampaignResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Caught < 1 || len(res.Repros) < 1 {
		t.Fatalf("chaos self-check found nothing: %+v", res)
	}
	if filepath.Dir(res.Repros[0]) != dir {
		t.Fatalf("reproducer outside -out: %s", res.Repros[0])
	}
}

func TestRunBadUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-kind", "cobol"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad -kind: exit %d", code)
	}
	if code := run([]string{"stray"}, &stdout, &stderr); code != 2 {
		t.Fatalf("stray arg: exit %d", code)
	}
	for _, props := range []string{"nope", "oracle"} {
		if code := run([]string{"-props", props}, &stdout, &stderr); code != 2 {
			t.Fatalf("-props %s (not an opt-in): exit %d", props, code)
		}
	}
}

// TestRunList: -list prints the opt-in property names one a line, -props
// accepts all of them at once, and an empty -props adds none.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d, stderr:\n%s", code, stderr.String())
	}
	names := strings.Fields(stdout.String())
	if len(names) == 0 || !reflect.DeepEqual(names, difftest.OptIns()) {
		t.Fatalf("-list printed %q, want %q", names, difftest.OptIns())
	}
	for _, props := range []string{"", strings.Join(names, ",")} {
		stdout.Reset()
		if code := run([]string{"-seed", "1", "-count", "2", "-props", props}, &stdout, &stderr); code != 0 {
			t.Fatalf("-props %q: exit %d, stderr:\n%s", props, code, stderr.String())
		}
	}
}
