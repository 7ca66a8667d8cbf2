package opt

import (
	"fmt"
	"testing"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/dataflow"
	"signext/internal/extelim"
	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/progen"
	"signext/internal/workloads"
)

// corpus returns the programs the keep-current tests optimize: the 17
// kernels, the compile-scale corpus (progen seeds 1-7, 40-160 statements, 8
// helpers) and the daemon hot set (progen seeds 1000-1015, 10 statements, 2
// helpers).
func corpus() map[string]string {
	srcs := map[string]string{}
	for _, w := range workloads.All() {
		srcs[w.Name] = w.Source
	}
	for i, n := range compileScaleStmts {
		srcs[fmt.Sprintf("progen-%d", i+1)] = progen.MiniJava(int64(i+1), progen.Config{Stmts: n, Funcs: 8})
	}
	for seed := int64(1000); seed < 1016; seed++ {
		srcs[fmt.Sprintf("progen-%d", seed)] = progen.MiniJava(seed, progen.Config{Stmts: 10, Funcs: 2})
	}
	return srcs
}

// optimizeCorpus inlines, converts and optimizes every corpus program, as the
// jit pipeline does up to the sign extension phase.
func optimizeCorpus(t *testing.T) {
	t.Helper()
	for name, src := range corpus() {
		cu, err := minijava.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		InlineProgram(cu.Prog)
		for _, fn := range cu.Prog.Funcs {
			extelim.Convert64(fn, ir.IA64)
			Run(fn)
		}
	}
}

// TestOptKeepsChains proves that Run needs one chains build per function:
// after every pass of every round, the chains the passes kept current equal a
// fresh build edge for edge and in the same order.
func TestOptKeepsChains(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes the kernels, the compile-scale corpus and the daemon hot set")
	}
	checked := 0
	passed = func(pass string, fn *ir.Func, ch *chains.Chains) {
		checked++
		if err := chains.Diff(ch, chains.Build(fn, cfg.Compute(fn))); err != nil {
			t.Errorf("%s after %s: kept chains differ from a fresh build: %v", fn.Name, pass, err)
		}
		if err := ch.Check(); err != nil {
			t.Errorf("%s after %s: %v", fn.Name, pass, err)
		}
	}
	defer func() { passed = nil }()
	optimizeCorpus(t)
	t.Logf("%d passes checked", checked)
}

// TestLICMKeepsChains proves the invariant licm relies on to skip a rebuild:
// after every loop that hoisted, the chains it kept equal a fresh build edge
// for edge and in the same order.
func TestLICMKeepsChains(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes the kernels, the compile-scale corpus and the daemon hot set")
	}
	checked := 0
	hoisted = func(fn *ir.Func, ch *chains.Chains, _ *liveness) {
		checked++
		if err := chains.Diff(ch, chains.Build(fn, cfg.Compute(fn))); err != nil {
			t.Errorf("%s: kept chains differ from a fresh build after hoisting: %v", fn.Name, err)
		}
	}
	defer func() { hoisted = nil }()
	optimizeCorpus(t)
	if checked == 0 {
		t.Fatal("no loop hoisted anything; the invariant went unchecked")
	}
	t.Logf("%d hoisting loops checked", checked)
}

// TestLICMLiveness proves that licm, which solves liveness once per call,
// acts on current answers: every answer it reads equals a fresh solution at
// that point, and after every loop that hoisted, so does its answer for every
// register at every loop header, the stale registers included.
func TestLICMLiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes the kernels, the compile-scale corpus and the daemon hot set")
	}
	fresh := func(fn *ir.Func) (*dataflow.Liveness, *cfg.Info) {
		info := cfg.Compute(fn)
		return dataflow.ComputeLiveness(fn, info), info
	}
	reads, sweeps := 0, 0
	liveRead = func(fn *ir.Func, b *ir.Block, reg ir.Reg, live bool) {
		reads++
		if want, _ := fresh(fn); live != want.LiveIn(b, reg) {
			t.Errorf("%s: licm read LiveIn(%s, %s) = %v, a fresh solution says %v", fn.Name, b, reg, live, !live)
		}
	}
	hoisted = func(fn *ir.Func, _ *chains.Chains, lv *liveness) {
		sweeps++
		want, info := fresh(fn)
		for _, l := range info.Loops {
			for reg := ir.Reg(0); int(reg) < fn.NReg; reg++ {
				if got := lv.LiveIn(l.Header, reg); got != want.LiveIn(l.Header, reg) {
					t.Errorf("%s after hoisting: LiveIn(%s, %s) = %v, a fresh solution says %v", fn.Name, l.Header, reg, got, !got)
					return
				}
			}
		}
	}
	defer func() { liveRead, hoisted = nil, nil }()
	optimizeCorpus(t)
	if reads == 0 || sweeps == 0 {
		t.Fatalf("%d reads and %d sweeps checked; the invariant went unchecked", reads, sweeps)
	}
	t.Logf("%d reads and %d hoisting loops checked", reads, sweeps)
}
