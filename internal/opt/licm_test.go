package opt

import (
	"fmt"
	"testing"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/extelim"
	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/progen"
	"signext/internal/workloads"
)

// TestLICMKeepsChains proves the invariant licm relies on to skip a rebuild:
// after every loop that hoisted, the chains it kept equal a fresh build edge
// for edge and in the same order. The programs are the 17 kernels and the
// compile-scale corpus (progen seeds 1-7, 40-160 statements, 8 helpers),
// inlined and converted as the jit pipeline does before the general
// optimizations.
func TestLICMKeepsChains(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes the kernels and the compile-scale corpus")
	}
	srcs := map[string]string{}
	for _, w := range workloads.All() {
		srcs[w.Name] = w.Source
	}
	for i, n := range []int{40, 60, 80, 100, 120, 140, 160} {
		srcs[fmt.Sprintf("progen-%d", i+1)] = progen.MiniJava(int64(i+1), progen.Config{Stmts: n, Funcs: 8})
	}

	checked := 0
	hoisted = func(fn *ir.Func, ch *chains.Chains) {
		checked++
		if err := chains.Diff(ch, chains.Build(fn, cfg.Compute(fn))); err != nil {
			t.Errorf("%s: kept chains differ from a fresh build after hoisting: %v", fn.Name, err)
		}
	}
	defer func() { hoisted = nil }()
	for name, src := range srcs {
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
	if checked == 0 {
		t.Fatal("no loop hoisted anything; the invariant went unchecked")
	}
	t.Logf("%d hoisting loops checked", checked)
}
