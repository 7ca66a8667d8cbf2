package vrange_test

import (
	"fmt"
	"testing"

	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/progen"
	. "signext/internal/vrange"
	"signext/internal/workloads"
)

// solveStats accumulates, over every Compute of a corpus compile, the sparse
// solve's evaluations and the round-robin reference's.
type solveStats struct {
	computes, evals, refEvals int
}

// compareCorpus compiles each program with o (sequentially, so that every
// Compute the compiler makes is checked as it returns) and checks that the
// sparse solve matches the round-robin reference exactly.
func compareCorpus(t *testing.T, progs map[string]string, o jit.Options, profile bool) solveStats {
	t.Helper()
	var st solveStats
	defer SetObserver(func(a *Analysis) {
		refEvals, diffs := CheckAgainstReference(a)
		for _, d := range diffs {
			t.Error(d)
		}
		st.computes++
		st.evals += a.Evals
		st.refEvals += refEvals
	})()
	o.Parallelism = 1
	for name, src := range progs {
		cu, err := minijava.Compile(src)
		if err != nil {
			t.Fatalf("%s: frontend: %v", name, err)
		}
		po := o
		if profile {
			if po.Profile, err = jit.ProfileRun(cu.Prog, "main", 0); err != nil {
				t.Fatalf("%s: profiling run: %v", name, err)
			}
		}
		if _, err := jit.Compile(cu.Prog, po); err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
	}
	if st.computes == 0 {
		t.Fatal("no Compute observed")
	}
	t.Logf("%d computes: %d evaluations, reference %d (%.1fx)",
		st.computes, st.evals, st.refEvals, float64(st.refEvals)/float64(st.evals))
	return st
}

// TestSparseMatchesReference: on the benchmark's corpora and a progen sweep,
// every range the sparse solve computes is bit for bit the round-robin
// solve's, and so are the operand facts later queries are answered from. On
// the compile-scale corpus the sparse solve evaluates at least four times
// fewer transfers.
func TestSparseMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark corpora twice over")
	}
	t.Run("paper-suite", func(t *testing.T) {
		progs := map[string]string{}
		for _, w := range workloads.All() {
			progs[w.Name] = w.Source
		}
		compareCorpus(t, progs, jit.Options{Variant: jit.All, Machine: ir.IA64, GeneralOpts: true}, true)
	})
	t.Run("compile-scale", func(t *testing.T) {
		progs := map[string]string{}
		for i, n := range []int{40, 60, 80, 100, 120, 140, 160} {
			progs[fmt.Sprintf("progen-%d", i+1)] = progen.MiniJava(int64(i+1), progen.Config{Stmts: n, Funcs: 8})
		}
		st := compareCorpus(t, progs, jit.Options{Variant: jit.All, Machine: ir.IA64, GeneralOpts: true, Peep: true}, false)
		if st.refEvals < 4*st.evals {
			t.Errorf("sparse solve made %d evaluations, reference %d: want at least 4x fewer", st.evals, st.refEvals)
		}
	})
	t.Run("progen-sweep", func(t *testing.T) {
		progs := map[string]string{}
		for seed := int64(1); seed <= 12; seed++ {
			for _, n := range []int{20, 80, 160} {
				progs[fmt.Sprintf("progen-%d-%d", seed, n)] = progen.MiniJava(seed, progen.Config{Stmts: n, Funcs: 4})
			}
		}
		compareCorpus(t, progs, jit.Options{Variant: jit.All, Machine: ir.IA64, GeneralOpts: true, Peep: true}, false)
	})
}
