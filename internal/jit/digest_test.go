package jit

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/progen"
	"signext/internal/workloads"
)

// compiledDigests pin the compiled IR of the benchmark's three corpora: the
// SHA-256 over every function's Format text plus the counts a compile reports
// (elimination statistics without timings, surviving static extensions and
// peephole rewrites). A pass that gets faster must leave these unchanged; a
// change that moves them changes what the compiler emits and must say so.
var compiledDigests = map[string]string{
	"paper-suite":   "e2a4966827496cafcb1653fd7170103f293bd40756dac46418d59fa617aa2bab",
	"compile-scale": "7375703cff64f12f1764f7f338ec423c8df837070eff7bc93c56b5da2fdedd43",
	"daemon-hot":    "c22f2f3e5670289743bb9ca14ddc6732a043d1f5f9c2fce596057622754dc3ea",
}

// digestCompile compiles src with o and folds the result into h.
func digestCompile(t *testing.T, h hash.Hash, name, src string, o Options, profile bool) {
	t.Helper()
	cu, err := minijava.Compile(src)
	if err != nil {
		t.Fatalf("%s: frontend: %v", name, err)
	}
	if profile {
		if o.Profile, err = ProfileRun(cu.Prog, "main", 0); err != nil {
			t.Fatalf("%s: profiling run: %v", name, err)
		}
	}
	res, err := Compile(cu.Prog, o)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	fmt.Fprintf(h, "== %s\n", name)
	for _, fn := range res.Prog.Funcs {
		fmt.Fprintln(h, fn.Format())
	}
	s := res.Stats
	fmt.Fprintf(h, "inserted=%d dummies=%d eliminated=%d remaining=%d exhausted=%v static=%d rewrites=%d\n",
		s.Inserted, s.Dummies, s.Eliminated, s.Remaining, s.BudgetExhausted, res.StaticExts, res.PeepRewrites)
}

// TestCompiledDigest proves compiled output is byte-identical to the pinned
// compiler on the 17 kernels (variant all, profiling run), the compile-scale
// corpus (progen seeds 1-7, 40-160 statements, 8 helpers, peephole on) and
// the daemon-mixed hot set (seeds 1000-1015, checked, sequential).
func TestCompiledDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles three benchmark corpora")
	}
	sets := map[string]func(h hash.Hash){
		"paper-suite": func(h hash.Hash) {
			for _, w := range workloads.All() {
				digestCompile(t, h, w.Name, w.Source,
					Options{Variant: All, Machine: ir.IA64, GeneralOpts: true}, true)
			}
		},
		"compile-scale": func(h hash.Hash) {
			for i, n := range []int{40, 60, 80, 100, 120, 140, 160} {
				src := progen.MiniJava(int64(i+1), progen.Config{Stmts: n, Funcs: 8})
				digestCompile(t, h, fmt.Sprintf("progen-%d", i+1), src,
					Options{Variant: All, Machine: ir.IA64, GeneralOpts: true, Peep: true}, false)
			}
		},
		"daemon-hot": func(h hash.Hash) {
			for seed := int64(1000); seed < 1016; seed++ {
				src := progen.MiniJava(seed, progen.Config{Stmts: 10, Funcs: 2})
				digestCompile(t, h, fmt.Sprintf("progen-%d", seed), src,
					Options{Variant: All, Machine: ir.IA64, GeneralOpts: true, Checked: true, Parallelism: 1}, false)
			}
		},
	}
	for name, digest := range sets {
		t.Run(name, func(t *testing.T) {
			h := sha256.New()
			digest(h)
			if got := hex.EncodeToString(h.Sum(nil)); got != compiledDigests[name] {
				t.Errorf("compiled-IR digest %s, pinned %s", got, compiledDigests[name])
			}
		})
	}
}
