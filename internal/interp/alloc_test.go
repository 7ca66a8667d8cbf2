package interp

import (
	"testing"

	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/workloads"
)

// callHeavyProg: main calls a tiny function n times — the workload shape
// where per-invocation allocation churn (a fresh register file and profile
// map per call) used to dominate.
func callHeavyProg(n int64) *ir.Program {
	prog := ir.NewProgram()

	f := ir.NewFunc("f", ir.Param{W: ir.W32})
	x := f.Param(0)
	one := f.Const(ir.W32, 1)
	s := f.Add(ir.W32, x, one)
	f.Ext(ir.W32, s)
	f.Ret(s)
	prog.AddFunc(f.Fn)

	b := ir.NewFunc("main")
	i := b.Fn.NewReg()
	acc := b.Fn.NewReg()
	b.ConstTo(ir.W32, i, 0)
	b.ConstTo(ir.W32, acc, 0)
	lim := b.Const(ir.W32, n)
	one = b.Const(ir.W32, 1)
	loop, body, exit := b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Jmp(loop)
	b.SetBlock(loop)
	b.Br(ir.W32, ir.CondLT, i, lim, body, exit)
	b.SetBlock(body)
	r := b.Call("f", ir.W32, false, i)
	b.OpTo(ir.OpAdd, ir.W32, acc, acc, r)
	b.Ext(ir.W32, acc)
	b.OpTo(ir.OpAdd, ir.W32, i, i, one)
	b.Ext(ir.W32, i)
	b.Jmp(loop)
	b.SetBlock(exit)
	b.Print(ir.W32, acc)
	b.Ret(ir.NoReg)
	prog.AddFunc(b.Fn)
	return prog
}

// TestAllocsPerCallRegression: with pooled register files and frames, the
// marginal allocation cost of an interpreted call must be (near) zero: 990
// extra calls may not add more than a handful of allocations, under either
// dispatcher. Before pooling, every call allocated at least a register
// slice, so 990 extra calls cost >= 990 allocations.
func TestAllocsPerCallRegression(t *testing.T) {
	small := callHeavyProg(10)
	big := callHeavyProg(1000)
	for _, d := range []Dispatch{DispatchSwitch, DispatchAuto} {
		run := func(p *ir.Program) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := Run(p, "main", Options{Mode: Mode32, Profile: true, Dispatch: d}); err != nil {
					t.Fatal(err)
				}
			})
		}
		extra := run(big) - run(small)
		if extra > 20 {
			t.Errorf("dispatch=%d: 990 extra calls cost %.0f extra allocations; want amortized ~0", d, extra)
		}
	}
}

// TestCompileBCAllocs gates the bytecode compiler's allocations on one
// kernel. compileBC indexes its instruction and block tables by ID in one
// slice and sizes every array from a first counting pass, so a function
// costs about eight allocations whatever its size; with pointer-keyed maps
// and growing slices the same kernel cost 86.
func TestCompileBCAllocs(t *testing.T) {
	cu, err := minijava.Compile(workloads.SPECjvm98()[1].Source) // jess
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, fn := range cu.Prog.Funcs {
			if compileBC(cu.Prog, fn) == nil {
				t.Fatalf("%s did not compile", fn.Name)
			}
		}
	})
	if allocs > 20 {
		t.Errorf("compileBC over jess's %d functions: %.0f allocations, want at most 20", len(cu.Prog.Funcs), allocs)
	}
}
