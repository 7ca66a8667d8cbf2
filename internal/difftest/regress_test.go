package difftest

import (
	"os"
	"path/filepath"
	"testing"

	"signext/internal/ir"
)

// TestReproducers replays every minimized reproducer under testdata/ as a
// permanent regression test. Chaos reproducers assert two things: the clean
// pipeline still passes the oracle on the program (no false positive), and
// deleting a load-bearing extension from the optimized build is still a
// caught miscompile (the oracle has not gone blind). Property reproducers
// assert the recorded property now holds, replayed with that property and
// the header's rule enabled (configFor) — a failure means the original bug
// regressed.
func TestReproducers(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.ir"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("expected at least 3 reproducers under testdata/, found %d", len(files))
	}
	minInstrs := 1 << 30
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ParseRepro(data)
			if err != nil {
				t.Fatal(err)
			}
			n := NumInstrs(r.Prog)
			if n < minInstrs {
				minInstrs = n
			}
			if n > 40 {
				t.Errorf("reproducer has %d instructions; the shrinker is expected to keep these small", n)
			}
			p := &Program{Seed: r.Seed, Kind: r.Kind, Prog: r.Prog}
			fails, skipped := Check(p, Config{OracleOnly: true})
			if skipped {
				t.Fatal("reproducer hit the step limit — it must terminate quickly")
			}
			if r.Prop == "chaos-dropext" {
				// The planted-fault reproducer: the clean build must be
				// correct, and the fault must still be visible.
				for _, f := range fails {
					t.Errorf("clean pipeline fails on chaos reproducer: %v", f)
				}
				if !ChaosCaught(r.Prog, r.Machine, shrinkMaxSteps) {
					t.Error("planted DropExt fault is no longer caught by the oracle")
				}
				return
			}
			// A property reproducer records a fixed pipeline bug; the
			// property must hold now and forever.
			fails, skipped = Check(p, configFor(Config{Machines: []ir.Machine{r.Machine}}, r.Prop, r.Rule))
			if skipped {
				t.Fatal("reproducer hit the step limit")
			}
			for _, f := range fails {
				t.Errorf("regressed: %v (originally %s)", f, r.Detail)
			}
		})
	}
	if minInstrs > 25 {
		t.Errorf("smallest reproducer has %d instructions; at least one is expected at <= 25", minInstrs)
	}
}
