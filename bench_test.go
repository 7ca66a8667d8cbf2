// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark compiles and executes its suite once per iteration and
// reports the headline metric through b.ReportMetric:
//
//	BenchmarkTable1  — jBYTEmark dynamic extension counts (avg % vs baseline)
//	BenchmarkTable2  — SPECjvm98 dynamic extension counts
//	BenchmarkTable3  — compilation-time breakdown (% in sign-ext phase)
//	BenchmarkFigure11/12 — percentage series behind the figures
//	BenchmarkFigure13/14 — cycle-model performance improvement
//	BenchmarkAblation*   — design-choice ablations called out in DESIGN.md
//	BenchmarkTieredVsOneShot — tiered runtime against the one-shot op, wall time
//
// Run with: go test -bench=. -benchmem
package signext_test

import (
	"testing"

	"signext"
	"signext/internal/bench"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/tiered"
	"signext/internal/workloads"
)

func runSuite(b *testing.B, ws []workloads.Workload, o bench.Options) *bench.SuiteResult {
	b.Helper()
	var res *bench.SuiteResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunSuite(ws, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Mismatch) > 0 {
			b.Fatalf("miscompiles: %v", res.Mismatch)
		}
	}
	return res
}

// BenchmarkTable1 regenerates Table 1: dynamic counts of remaining 32-bit
// sign extensions for jBYTEmark, all twelve variants.
func BenchmarkTable1(b *testing.B) {
	res := runSuite(b, workloads.JBYTEmark(), bench.Options{Machine: ir.IA64, UseProfile: true})
	b.ReportMetric(res.AvgPct(jit.All), "avg%_new_algorithm")
	b.ReportMetric(res.AvgPct(jit.FirstAlgorithm), "avg%_first_algorithm")
	b.ReportMetric(res.AvgPct(jit.GenUse), "avg%_gen_use")
}

// BenchmarkTable2 regenerates Table 2 for SPECjvm98.
func BenchmarkTable2(b *testing.B) {
	res := runSuite(b, workloads.SPECjvm98(), bench.Options{Machine: ir.IA64, UseProfile: true})
	b.ReportMetric(res.AvgPct(jit.All), "avg%_new_algorithm")
	b.ReportMetric(res.AvgPct(jit.FirstAlgorithm), "avg%_first_algorithm")
	b.ReportMetric(res.AvgPct(jit.BasicUDDU), "avg%_basic_ud_du")
}

// BenchmarkTable3 regenerates Table 3: the JIT compilation-time breakdown
// (sign extension optimizations vs UD/DU chain creation vs the rest) over
// every workload under the full algorithm.
func BenchmarkTable3(b *testing.B) {
	var se, ch, tot float64
	for i := 0; i < b.N; i++ {
		se, ch, tot = 0, 0, 0
		for _, suite := range [][]workloads.Workload{workloads.SPECjvm98(), workloads.JBYTEmark()} {
			res, err := bench.RunSuite(suite, bench.Options{
				Machine: ir.IA64, UseProfile: true, Variants: []jit.Variant{jit.All},
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, tm := range res.Timing {
				se += tm.SignExt.Seconds()
				ch += tm.Chains.Seconds()
				tot += tm.Total().Seconds()
			}
		}
	}
	if tot > 0 {
		b.ReportMetric(100*se/tot, "signext_%compile_time")
		b.ReportMetric(100*ch/tot, "chains_%compile_time")
	}
}

// BenchmarkFigure11 regenerates the percentage series of Figure 11.
func BenchmarkFigure11(b *testing.B) {
	res := runSuite(b, workloads.JBYTEmark(), bench.Options{Machine: ir.IA64, UseProfile: true})
	best, worst := 100.0, 0.0
	for wi := range res.Names {
		p := res.Pct(jit.All, wi)
		if p < best {
			best = p
		}
		if p > worst {
			worst = p
		}
	}
	b.ReportMetric(best, "best%_remaining")
	b.ReportMetric(worst, "worst%_remaining")
}

// BenchmarkFigure12 regenerates the percentage series of Figure 12.
func BenchmarkFigure12(b *testing.B) {
	res := runSuite(b, workloads.SPECjvm98(), bench.Options{Machine: ir.IA64, UseProfile: true})
	best, worst := 100.0, 0.0
	for wi := range res.Names {
		p := res.Pct(jit.All, wi)
		if p < best {
			best = p
		}
		if p > worst {
			worst = p
		}
	}
	b.ReportMetric(best, "best%_remaining")
	b.ReportMetric(worst, "worst%_remaining")
}

// BenchmarkFigure13 regenerates Figure 13: performance improvement of the
// full algorithm over baseline for jBYTEmark under the cycle model.
func BenchmarkFigure13(b *testing.B) {
	res := runSuite(b, workloads.JBYTEmark(), bench.Options{Machine: ir.IA64, UseProfile: true})
	sum := 0.0
	for wi := range res.Names {
		sum += res.Improvement(jit.All, wi)
	}
	b.ReportMetric(sum/float64(len(res.Names)), "avg_%improvement")
}

// BenchmarkFigure14 regenerates Figure 14 for SPECjvm98.
func BenchmarkFigure14(b *testing.B) {
	res := runSuite(b, workloads.SPECjvm98(), bench.Options{Machine: ir.IA64, UseProfile: true})
	sum := 0.0
	for wi := range res.Names {
		sum += res.Improvement(jit.All, wi)
	}
	b.ReportMetric(sum/float64(len(res.Names)), "avg_%improvement")
}

// BenchmarkAblationPPC64 repeats the Table 1 measurement on the PPC64-like
// model, where implicit sign-extending loads leave fewer extensions to
// remove in the first place (DESIGN.md ablation).
func BenchmarkAblationPPC64(b *testing.B) {
	res := runSuite(b, workloads.JBYTEmark(), bench.Options{Machine: ir.PPC64, UseProfile: true})
	b.ReportMetric(res.AvgPct(jit.All), "avg%_new_algorithm")
}

// BenchmarkAblationNoProfile measures order determination running on static
// frequency estimates only (no interpreter branch profile).
func BenchmarkAblationNoProfile(b *testing.B) {
	res := runSuite(b, workloads.JBYTEmark(), bench.Options{Machine: ir.IA64, UseProfile: false})
	b.ReportMetric(res.AvgPct(jit.All), "avg%_new_algorithm")
}

// BenchmarkAblationMaxLen measures the Figure 10 effect across the suite: a
// configured maximum array length below 0x7fffffff loosens Theorem 4's
// bound.
func BenchmarkAblationMaxLen(b *testing.B) {
	// The start index must be a genuinely signed runtime value: a constant
	// (or any zero-upper-half source) would let Theorem 3 remove the
	// extension regardless of maxlen.
	const src = `
static int bias = 0;
int walk(int[] a, int start, int stop) {
	int t = 0;
	int i = start;
	do { i = i - 2; t += a[i]; } while (i > stop);
	return t;
}
void main() {
	int[] a = new int[4096];
	for (int k = 0; k < a.length; k++) { a[k] = k; bias = bias - 1; }
	int start = bias + 8096; // = 4000, but signed and unknown to the ranges
	print(walk(a, start, 2));
}`
	var javaExts, smallExts int64
	for i := 0; i < b.N; i++ {
		for _, maxLen := range []int64{0, 0x7fff0001} {
			res, err := signext.CompileSource(src, signext.Options{
				Variant: signext.VariantAll, Machine: signext.IA64, MaxArrayLen: maxLen,
			})
			if err != nil {
				b.Fatal(err)
			}
			run, err := res.Run()
			if err != nil {
				b.Fatal(err)
			}
			if maxLen == 0 {
				javaExts = run.DynamicExts
			} else {
				smallExts = run.DynamicExts
			}
		}
	}
	b.ReportMetric(float64(javaExts), "dyn_ext_java_maxlen")
	b.ReportMetric(float64(smallExts), "dyn_ext_small_maxlen")
	if smallExts >= javaExts {
		b.Fatal("Theorem 4 with a smaller maxlen must remove more extensions")
	}
}

// BenchmarkAblationGeneration compares the two generation strategies of
// Figure 6 in isolation (no elimination): after-definition generation leaves
// more raw extensions than before-use generation, which is exactly why the
// paper pairs it with elimination.
func BenchmarkAblationGeneration(b *testing.B) {
	res := runSuite(b, workloads.JBYTEmark(), bench.Options{
		Machine: ir.IA64, Variants: []jit.Variant{jit.Baseline, jit.GenUse, jit.All},
	})
	b.ReportMetric(res.AvgPct(jit.GenUse), "gen_use_avg%")
	b.ReportMetric(res.AvgPct(jit.All), "gen_def_plus_elim_avg%")
}

// tierInvocations is how many times each kernel's main runs in
// BenchmarkTieredVsOneShot.
const tierInvocations = 3

// BenchmarkTieredVsOneShot times each of the 17 kernels two ways, in wall
// time only, and fails if any output differs from the one-shot reference:
//
//	one-shot: frontend, jit.ProfileRun, jit.Compile, then jit.Execute 3×
//	tiered:   frontend, tiered.New, then Invoke 3× (promotion compiles
//	          included)
//
// Both compile with the options of sxbench's paper-suite workload. Compare
// the two sub-benchmarks of one kernel: their ratio is the measured tiering
// speedup (below 1 means tiering is slower).
func BenchmarkTieredVsOneShot(b *testing.B) {
	opts := jit.Options{Variant: jit.All, Machine: ir.IA64, GeneralOpts: true}
	for _, w := range workloads.All() {
		oneShot := func() ([]string, error) {
			cu, err := minijava.Compile(w.Source)
			if err != nil {
				return nil, err
			}
			o := opts
			if o.Profile, err = jit.ProfileRun(cu.Prog, "main", 0); err != nil {
				return nil, err
			}
			res, err := jit.Compile(cu.Prog, o)
			if err != nil {
				return nil, err
			}
			var outs []string
			for i := 0; i < tierInvocations; i++ {
				run, err := jit.Execute(res, "main")
				if err != nil {
					return nil, err
				}
				outs = append(outs, run.Output)
			}
			return outs, nil
		}
		tier := func() ([]string, error) {
			cu, err := minijava.Compile(w.Source)
			if err != nil {
				return nil, err
			}
			m, err := tiered.New(cu.Prog, tiered.Config{Options: opts})
			if err != nil {
				return nil, err
			}
			var outs []string
			for i := 0; i < tierInvocations; i++ {
				run, err := m.Invoke()
				if err != nil {
					return nil, err
				}
				outs = append(outs, run.Output)
			}
			return outs, nil
		}
		var ref []string // computed once, by the first selected sub-benchmark
		for _, mode := range []struct {
			name string
			run  func() ([]string, error)
		}{{"one-shot", oneShot}, {"tiered", tier}} {
			b.Run(w.Name+"/"+mode.name, func(b *testing.B) {
				if ref == nil {
					var err error
					if ref, err = oneShot(); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					outs, err := mode.run()
					if err != nil {
						b.Fatal(err)
					}
					for k, out := range outs {
						if out != ref[0] {
							b.Fatalf("invocation %d output differs from the one-shot reference", k+1)
						}
					}
				}
			})
		}
	}
}
