package main

import (
	"signext"

	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// runGolden executes the CLI on the fixed fixture and compares stdout to a
// golden file byte-for-byte. Regenerate with: go test ./cmd/sxelim -update
func runGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, stderr.String())
	}
	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("output differs from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestGoldenSummaryAndRun(t *testing.T) {
	// The default mode: one summary line, the program's own output, and the
	// dynamic-count trailer. Everything here is deterministic: counts come
	// from the interpreter, not timing.
	runGolden(t, "narrow_run.golden", "-parallel", "1", "testdata/narrow.mj")
}

func TestGoldenCompare(t *testing.T) {
	runGolden(t, "narrow_compare.golden", "-compare", "-parallel", "1", "testdata/narrow.mj")
}

func TestGoldenDump(t *testing.T) {
	// -dump under the basic variant: the printed IR is the full optimized
	// program, pinning instruction order, register numbering and the
	// surviving extensions.
	runGolden(t, "narrow_dump.golden", "-variant", "basic", "-run=false", "-dump", "-parallel", "1", "testdata/narrow.mj")
}

func TestGoldenIRInput(t *testing.T) {
	runGolden(t, "ext_run.golden", "-check", "-parallel", "1", "testdata/ext.ir")
}

func TestGoldenPeep(t *testing.T) {
	// The peephole pass over a fixture with one site per rule family: the
	// rewrite count and the program output are both pinned, so a rule that
	// silently stops firing (or fires and changes a result) breaks the
	// golden.
	runGolden(t, "peep_run.golden", "-peep", "-parallel", "1", "testdata/peep.ir")
}

func TestGoldenPeepRulesFilter(t *testing.T) {
	// A single-rule filter: only div-magic may fire on the same fixture.
	runGolden(t, "peep_rules.golden", "-peep", "-peep-rules", "div-magic", "-parallel", "1", "testdata/peep.ir")
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		diag string // substring expected on stderr
	}{
		{"no input file", []string{}, 2, "usage:"},
		{"unknown variant", []string{"-variant", "nope", "testdata/narrow.mj"}, 2, "unknown variant"},
		// Any machine name but the two models is a usage error, never a
		// silent compile for ia64.
		{"unknown machine", []string{"-machine", "ppc", "testdata/narrow.mj"}, 2, "unknown machine"},
		{"unknown flag", []string{"-frobnicate"}, 2, ""},
		{"missing file", []string{"testdata/no-such-file.mj"}, 1, "no such file"},
		{"bad source", []string{"testdata/bad.mj"}, 1, "sxelim:"},
		{"unknown peep rule", []string{"-peep", "-peep-rules", "no-such-rule", "testdata/peep.ir"}, 2, "no-such-rule"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit code %d, want %d\nstderr: %s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.diag) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tc.diag)
			}
		})
	}
}

func TestGoldenTiered(t *testing.T) {
	// Tiered runtime over the fixture: promotion order, weights and the
	// identity line are all deterministic (weights and cycles come from the
	// interpreter; no wall clock reaches stdout).
	runGolden(t, "narrow_tiered.golden", "-tiered", "-hot-threshold", "50", "-invocations", "4", "-parallel", "1", "testdata/narrow.mj")
}

func TestGoldenProfileOut(t *testing.T) {
	// The gathered profile in its JSON wire form, written to stdout. This
	// pins the serialization: field order, function/branch sorting, indent
	// and the trailing newline.
	runGolden(t, "narrow_profile.golden", "-run=false", "-profile-out", "-", "-parallel", "1", "testdata/narrow.mj")
}

// TestProfileRoundTrip drives the full persistence loop: -profile-out
// writes JSON a later process accepts via -profile-in, decode→encode is
// byte-identical (including the golden file itself), and seeding a tiered
// run with its own profile warm-starts promotions.
func TestProfileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pfile := filepath.Join(dir, "profile.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{"-tiered", "-hot-threshold", "50", "-profile-out", pfile, "-parallel", "1", "testdata/narrow.mj"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("profile-out run failed (%d): %s", code, stderr.String())
	}
	data, err := os.ReadFile(pfile)
	if err != nil {
		t.Fatal(err)
	}
	p, err := signext.ParseProfile(data)
	if err != nil {
		t.Fatalf("persisted profile does not parse: %v", err)
	}
	if !bytes.Equal(p.Marshal(), data) {
		t.Fatal("decode→encode of the persisted profile is not byte-identical")
	}

	// The pinned golden must round-trip too — if the wire format drifts,
	// this fails even before -update is considered. The golden holds the
	// compile summary line followed by the JSON document.
	golden, err := os.ReadFile("testdata/narrow_profile.golden")
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.IndexByte(golden, '{')
	if idx < 0 {
		t.Fatal("golden holds no JSON document")
	}
	gp, err := signext.ParseProfile(golden[idx:])
	if err != nil {
		t.Fatalf("golden profile does not parse: %v", err)
	}
	if !bytes.Equal(gp.Marshal(), golden[idx:]) {
		t.Fatal("golden profile is not a fixed point of decode→encode")
	}

	// Seeded run: the profile warm-starts promotion before invocation 1.
	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-tiered", "-hot-threshold", "50", "-invocations", "1", "-profile-in", pfile, "-parallel", "1", "testdata/narrow.mj"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("profile-in run failed (%d): %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "(invocation 0,") {
		t.Errorf("seeded run did not promote before the first invocation:\n%s", stdout.String())
	}

	// And a plain compile accepts the profile as the static order source.
	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-profile-in", pfile, "-parallel", "1", "testdata/narrow.mj"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("static -profile-in compile failed (%d): %s", code, stderr.String())
	}
}
