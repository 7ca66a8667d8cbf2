package workloads

import (
	"testing"

	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
)

// TestWorkloadsCompileAndRun compiles every kernel and checks it runs to
// completion under the 32-bit reference semantics with deterministic output.
func TestWorkloadsCompileAndRun(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cu, err := minijava.Compile(w.Source)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			res, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
			if err != nil {
				t.Fatalf("run: %v\noutput:\n%s", err, res.Output)
			}
			if res.Output == "" {
				t.Fatal("no output")
			}
			res2, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
			if err != nil || res2.Output != res.Output {
				t.Fatalf("non-deterministic output")
			}
		})
	}
}

// TestWorkloadsSoundUnderOptimization runs every kernel under the key
// variants and checks behavioural equivalence plus the expected monotone
// drop in dynamic extension counts.
func TestWorkloadsSoundUnderOptimization(t *testing.T) {
	variants := []jit.Variant{jit.Baseline, jit.GenUse, jit.FirstAlgorithm, jit.BasicUDDU, jit.All}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cu, err := minijava.Compile(w.Source)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			ref, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			counts := map[jit.Variant]int64{}
			for _, v := range variants {
				res, err := jit.Compile(cu.Prog, jit.Options{
					Variant: v, Machine: ir.IA64, GeneralOpts: true, Checked: true,
				})
				if err != nil {
					t.Fatalf("%s: compile: %v", v, err)
				}
				if len(res.Fallbacks) > 0 {
					t.Fatalf("%s: phase fell back: %v", v, res.Fallbacks[0])
				}
				out, err := jit.Execute(res, "main")
				if err != nil {
					t.Fatalf("%s: run: %v\noutput:\n%s", v, err, out.Output)
				}
				if out.Output != ref.Output {
					t.Fatalf("%s: wrong output\nwant %q\ngot  %q", v, ref.Output, out.Output)
				}
				counts[v] = out.Ext32()
			}
			if counts[jit.All] > counts[jit.Baseline] {
				t.Errorf("new algorithm worse than baseline: %v", counts)
			}
			// Per-benchmark, basic ud/du can lose to the backward-dataflow
			// first algorithm (flow-sensitivity vs chain precision — the
			// paper's tables have such cells too); the full algorithm must
			// still win overall.
			if counts[jit.All] > counts[jit.FirstAlgorithm] {
				t.Errorf("the new algorithm should not lose to the first algorithm: %v", counts)
			}
		})
	}
}
