package interp_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/progen"
	"signext/internal/workloads"
)

// corpusCase is one program of a dispatch corpus, compiled with the options
// the jit digest tests and sxbench use for that corpus.
type corpusCase struct {
	name    string
	src     string
	o       jit.Options
	profile bool // the corpus has a Mode32 profiling run that feeds the compile
}

// dispatchCorpora are the benchmark's three corpora: the paper's 17 kernels
// (paper-suite), progen seeds 1-7 with peep on (compile-scale), and the
// daemon's hot set, progen seeds 1000-1015 (daemon-hot).
func dispatchCorpora() map[string][]corpusCase {
	sets := map[string][]corpusCase{}
	for _, w := range workloads.All() {
		sets["paper-suite"] = append(sets["paper-suite"], corpusCase{w.Name, w.Source,
			jit.Options{Variant: jit.All, Machine: ir.IA64, GeneralOpts: true}, true})
	}
	for i, n := range []int{40, 60, 80, 100, 120, 140, 160} {
		sets["compile-scale"] = append(sets["compile-scale"], corpusCase{fmt.Sprintf("progen-%d", i+1),
			progen.MiniJava(int64(i+1), progen.Config{Stmts: n, Funcs: 8}),
			jit.Options{Variant: jit.All, Machine: ir.IA64, GeneralOpts: true, Peep: true}, false})
	}
	for seed := int64(1000); seed < 1016; seed++ {
		sets["daemon-hot"] = append(sets["daemon-hot"], corpusCase{fmt.Sprintf("progen-%d", seed),
			progen.MiniJava(seed, progen.Config{Stmts: 10, Funcs: 2}),
			jit.Options{Variant: jit.All, Machine: ir.IA64, GeneralOpts: true, Checked: true, Parallelism: 1}, false})
	}
	return sets
}

// dispatchPins are the exact dispatches of each corpus run. The engine fuses
// nothing, so every entered segment is one dispatch and every executed
// instruction one more.
var dispatchPins = map[string]int64{
	"paper-suite/profile":    29186648,
	"paper-suite/compiled":   25887614,
	"compile-scale/compiled": 185096,
	"daemon-hot/compiled":    80725,
}

// TestDispatchCounts pins the exact dispatch counts of the threaded engine on
// the benchmark corpora, so a change to segmenting or a fused pattern shows as
// a moved total. Run with -v for the busiest tokens and, when a pattern
// fuses, the share of dispatches it saves.
func TestDispatchCounts(t *testing.T) {
	got := map[string]interp.Dispatches{}
	add := func(key string, d interp.Dispatches) {
		acc := got[key]
		if acc.Tok == nil {
			acc.Tok = map[string]int64{}
		}
		for k, v := range d.Tok {
			acc.Tok[k] += v
		}
		acc.Fused += d.Fused
		acc.Unfused += d.Unfused
		got[key] = acc
	}
	for corpus, cases := range dispatchCorpora() {
		for _, c := range cases {
			cu, err := minijava.Compile(c.src)
			if err != nil {
				t.Fatalf("%s/%s: frontend: %v", corpus, c.name, err)
			}
			o := c.o
			if c.profile {
				res, d, err := interp.DispatchCounts(cu.Prog, "main", interp.Options{Mode: interp.Mode32, Profile: true})
				if err != nil {
					t.Fatalf("%s/%s: profiling run: %v", corpus, c.name, err)
				}
				o.Profile = res.Profile
				add(corpus+"/profile", d)
			}
			res, err := jit.Compile(cu.Prog, o)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", corpus, c.name, err)
			}
			_, d, err := interp.DispatchCounts(res.Prog, "main",
				interp.Options{Mode: interp.Mode64, Machine: o.Machine, MaxArrayLen: o.MaxArrayLen})
			if err != nil {
				t.Fatalf("%s/%s: compiled run: %v", corpus, c.name, err)
			}
			add(corpus+"/compiled", d)
		}
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		d := got[key]
		toks := make([]string, 0, len(d.Tok))
		for tok := range d.Tok {
			toks = append(toks, tok)
		}
		sort.Slice(toks, func(i, j int) bool { return d.Tok[toks[i]] > d.Tok[toks[j]] })
		t.Logf("%-22s dispatches %d, unfused %d, saved %.2f%%", key, d.Fused, d.Unfused, share(d.Unfused-d.Fused, d.Fused))
		for k, tok := range toks {
			if n := d.Tok[tok]; strings.Contains(tok, "+") {
				t.Logf("    %-12s %10d fires, saves %.2f%%", tok, n, share(int64(strings.Count(tok, "+"))*n, d.Fused))
			} else if k < 6 {
				t.Logf("    %-12s %10d (%.1f%%)", tok, n, share(n, d.Fused))
			}
		}
		pin, ok := dispatchPins[key]
		if !ok {
			t.Errorf("%s: no pin", key)
			continue
		}
		if d.Fused != pin || d.Unfused != pin {
			t.Errorf("%s: %d dispatches (%d unfused), pinned %d", key, d.Fused, d.Unfused, pin)
		}
	}
	for key := range dispatchPins {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: pinned but not run", key)
		}
	}
}

// share is n as a percentage of the fused run's dispatches: a pattern of k
// ops that fires n times saves (k-1)*n of them.
func share(n, of int64) float64 { return 100 * float64(n) / float64(of) }

// kernelExec holds the 17 kernels compiled once with paper-suite's options,
// with each one's expected output.
var kernelExec struct {
	once sync.Once
	res  []*jit.Result
	outs []string
	err  error
}

func compiledKernels() ([]*jit.Result, []string, error) {
	k := &kernelExec
	k.once.Do(func() {
		for _, w := range workloads.All() {
			cu, err := minijava.Compile(w.Source)
			if err != nil {
				k.err = fmt.Errorf("%s: %w", w.Name, err)
				return
			}
			o := jit.Options{Variant: jit.All, Machine: ir.IA64, GeneralOpts: true}
			if o.Profile, err = jit.ProfileRun(cu.Prog, "main", 0); err != nil {
				k.err = fmt.Errorf("%s: %w", w.Name, err)
				return
			}
			res, err := jit.Compile(cu.Prog, o)
			if err != nil {
				k.err = fmt.Errorf("%s: %w", w.Name, err)
				return
			}
			run, err := jit.Execute(res, "main")
			if err != nil {
				k.err = fmt.Errorf("%s: %w", w.Name, err)
				return
			}
			k.res = append(k.res, res)
			k.outs = append(k.outs, run.Output)
		}
	})
	return k.res, k.outs, k.err
}

// BenchmarkKernelExec times execution alone: one iteration runs the 17
// compiled kernels once each with jit.Execute (threaded dispatch, IA64 cost
// model); frontend, profiling and compilation happen once, outside the
// timer. Wall time on a shared box drifts, so the metric to compare is
// min-ms, the fastest of the b.N passes; run with -benchtime Nx.
func BenchmarkKernelExec(b *testing.B) {
	res, outs, err := compiledKernels()
	if err != nil {
		b.Fatal(err)
	}
	best := time.Duration(1<<63 - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for k, r := range res {
			run, err := jit.Execute(r, "main")
			if err != nil {
				b.Fatal(err)
			}
			if run.Output != outs[k] {
				b.Fatalf("kernel %d: output differs from its first run", k)
			}
		}
		best = min(best, time.Since(t0))
	}
	b.ReportMetric(float64(best.Microseconds())/1000, "min-ms")
}
