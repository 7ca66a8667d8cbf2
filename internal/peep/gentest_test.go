package peep_test

import (
	"os"
	"path/filepath"
	"testing"

	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/peep"
)

// TestGeneratedProgramsThroughJIT is the jit-pipeline half of the
// self-generated test story (the in-package half is
// TestRuleRewritesFireAndPreserveOutput): each committed generated program
// is compiled through the full guarded pipeline with the peephole pass
// focused on its one rule, the stats counter must show the rule fired
// inside the pipeline, and the peeped build must be bit-identical to the
// Mode32 reference of the 32-bit form — across both machine models and
// both interpreter dispatchers — while executing fewer modelled cycles
// than the same pipeline without the pass. This is the rewrite-fires +
// differential-identity acceptance gate, run on the committed artifacts so
// a stale checkout cannot pass by accident.
func TestGeneratedProgramsThroughJIT(t *testing.T) {
	for i := range peep.Rules {
		r := &peep.Rules[i]
		t.Run(r.Name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", "gen", r.Name+".ir"))
			if err != nil {
				t.Fatalf("%v (run with -update via TestEveryRuleHasGeneratedTest)", err)
			}
			prog, err := ir.ParseProgram(string(src))
			if err != nil {
				t.Fatalf("committed generated program does not parse: %v", err)
			}
			ref, err := interp.Run(prog, "main", interp.Options{Mode: interp.Mode32, Machine: ir.IA64})
			if err != nil {
				t.Fatalf("Mode32 reference: %v", err)
			}
			for _, mach := range []ir.Machine{ir.IA64, ir.PPC64} {
				opts := jit.Options{
					Variant: jit.All, Machine: mach, GeneralOpts: true,
					Checked: true, Parallelism: 1,
				}
				base, err := jit.Compile(prog, opts)
				if err != nil {
					t.Fatalf("%v: base compile: %v", mach, err)
				}
				opts.Peep, opts.PeepRules = true, []string{r.Name}
				res, err := jit.Compile(prog, opts)
				if err != nil {
					t.Fatalf("%v: peeped compile: %v", mach, err)
				}
				if len(res.Fallbacks) != 0 {
					t.Fatalf("%v: pipeline fell back on a generated program: %v", mach, res.Fallbacks)
				}
				if res.PeepRewrites == 0 {
					t.Fatalf("%v: rule %s did not fire inside the jit pipeline", mach, r.Name)
				}
				for _, d := range []interp.Dispatch{interp.DispatchSwitch, interp.DispatchAuto} {
					got, err := interp.Run(res.Prog, "main", interp.Options{
						Mode: interp.Mode64, Machine: mach, Dispatch: d,
					})
					if err != nil {
						t.Fatalf("%v dispatch %d: %v", mach, d, err)
					}
					if got.Output != ref.Output {
						t.Fatalf("%v dispatch %d: peeped build diverged from Mode32 reference\ngot  %q\nwant %q",
							mach, d, got.Output, ref.Output)
					}
				}
				// The rewrite must pay off in modelled cycles at run time.
				baseRun, err := jit.Execute(base, "main")
				if err != nil {
					t.Fatalf("%v: base run: %v", mach, err)
				}
				peepRun, err := jit.Execute(res, "main")
				if err != nil {
					t.Fatalf("%v: peeped run: %v", mach, err)
				}
				if peepRun.Cycles >= baseRun.Cycles {
					t.Errorf("%v: peeped build runs %d modelled cycles, no fewer than the base build's %d",
						mach, peepRun.Cycles, baseRun.Cycles)
				}
			}
		})
	}
}
