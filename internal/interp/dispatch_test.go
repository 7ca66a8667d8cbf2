package interp

import (
	"fmt"
	"reflect"
	"testing"

	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/target"
	"signext/internal/workloads"
)

// runBoth executes prog under both dispatchers with identical options and
// returns the pair of results and errors.
func runBoth(t *testing.T, prog *ir.Program, opt Options) (sw, th *Result, swErr, thErr error) {
	t.Helper()
	o := opt
	o.Dispatch = DispatchSwitch
	sw, swErr = Run(prog, "main", o)
	o.Dispatch = DispatchAuto
	th, thErr = Run(prog, "main", o)
	return sw, th, swErr, thErr
}

// assertIdentical requires every observable of the two runs to match: output,
// error string, step and cycle totals, executed sign-extension counts, and
// profiles (entry and branch counts).
func assertIdentical(t *testing.T, label string, sw, th *Result, swErr, thErr error) {
	t.Helper()
	errStr := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	if errStr(swErr) != errStr(thErr) {
		t.Fatalf("%s: error mismatch: switch %q, threaded %q", label, errStr(swErr), errStr(thErr))
	}
	if sw.Output != th.Output {
		t.Fatalf("%s: output mismatch:\nswitch:\n%s\nthreaded:\n%s", label, sw.Output, th.Output)
	}
	if sw.Steps != th.Steps {
		t.Fatalf("%s: steps: switch %d, threaded %d", label, sw.Steps, th.Steps)
	}
	if sw.Cycles != th.Cycles {
		t.Fatalf("%s: cycles: switch %d, threaded %d", label, sw.Cycles, th.Cycles)
	}
	if sw.Ext != th.Ext {
		t.Fatalf("%s: ext counts: switch %v, threaded %v", label, sw.Ext[8:33], th.Ext[8:33])
	}
	if !reflect.DeepEqual(sw.Profile, th.Profile) {
		t.Fatalf("%s: profiles differ:\nswitch:   %s\nthreaded: %s", label, sw.Profile.Marshal(), th.Profile.Marshal())
	}
}

// TestDispatchIdentityWorkloads runs every workload through both dispatchers
// in both modes on both machine models with profiling and the cost model on,
// asserting bit-identical observables.
func TestDispatchIdentityWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cu, err := minijava.Compile(w.Source)
			if err != nil {
				t.Fatalf("compile %s: %v", w.Name, err)
			}
			for _, mach := range []ir.Machine{ir.IA64, ir.PPC64} {
				for _, mode := range []Mode{Mode32, Mode64} {
					opt := Options{
						Mode:    mode,
						Machine: mach,
						Profile: true,
						Cost:    target.CostModel(mach),
					}
					sw, th, swErr, thErr := runBoth(t, cu.Prog, opt)
					label := fmt.Sprintf("%s/%v/mode%d", w.Name, mach, 64-32*int(mode))
					assertIdentical(t, label, sw, th, swErr, thErr)
					if sw.Steps == 0 {
						t.Fatalf("%s: workload executed no steps", label)
					}
				}
			}
		})
	}
}

// stepLimitProg mixes traps, calls, prints, and narrow arithmetic so a step
// limit can land on every interesting instruction kind.
func stepLimitProg() *ir.Program {
	prog := ir.NewProgram()

	f := ir.NewFunc("f", ir.Param{W: ir.W32})
	x := f.Param(0)
	one := f.Const(ir.W32, 1)
	s := f.Add(ir.W32, x, one)
	f.Ext(ir.W32, s)
	f.Print(ir.W32, s)
	f.Ret(s)
	prog.AddFunc(f.Fn)

	b := ir.NewFunc("main")
	i := b.Fn.NewReg()
	acc := b.Fn.NewReg()
	b.ConstTo(ir.W32, i, 0)
	b.ConstTo(ir.W32, acc, 0)
	n := b.Const(ir.W32, 25)
	one = b.Const(ir.W32, 1)
	loop, body, exit := b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Jmp(loop)
	b.SetBlock(loop)
	b.Br(ir.W32, ir.CondLT, i, n, body, exit)
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

// TestDispatchIdentityStepLimitSweep pins the exact step-limit semantics of
// the segment-batched fast path: for every possible MaxSteps value up to the
// program's full length, both dispatchers must stop at the same instruction
// with the same totals, output prefix, and partial profile.
func TestDispatchIdentityStepLimitSweep(t *testing.T) {
	prog := stepLimitProg()
	full, err := Run(prog, "main", Options{Mode: Mode32, Dispatch: DispatchSwitch})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	cost := target.CostModel(ir.IA64)
	for lim := int64(1); lim <= full.Steps+1; lim++ {
		opt := Options{
			Mode:     Mode32,
			MaxSteps: lim,
			Profile:  true,
			Cost:     cost,
		}
		sw, th, swErr, thErr := runBoth(t, prog, opt)
		assertIdentical(t, fmt.Sprintf("maxsteps=%d", lim), sw, th, swErr, thErr)
		if lim < full.Steps && swErr == nil {
			t.Fatalf("maxsteps=%d: expected a step-limit trap", lim)
		}
		if lim < full.Steps && sw.Steps != lim+1 {
			t.Fatalf("maxsteps=%d: walker stopped at step %d, want %d", lim, sw.Steps, lim+1)
		}
	}
}

// TestDispatchIdentityNarrowWidths runs narrow arithmetic, loads and their
// extensions, and two loop shapes under both dispatchers in both modes,
// including Mode32 normalization between adjacent narrow instructions.
func TestDispatchIdentityNarrowWidths(t *testing.T) {
	prog := ir.NewProgram()
	prog.NGlobals = 1
	b := ir.NewFunc("main")
	i := b.Fn.NewReg()
	s := b.Fn.NewReg()
	b.ConstTo(ir.W8, i, 0)
	b.ConstTo(ir.W32, s, 0)
	n := b.Const(ir.W32, 300)
	b.StoreG(ir.W16, 0, b.Const(ir.W32, -5))
	arr := b.NewArr(ir.W8, false, b.Const(ir.W32, 4))
	// 0x1ff stores as 0xff: the IA64 load zero-extends it and the ext after
	// it must read -1.
	b.ArrStore(ir.W8, false, arr, b.Const(ir.W32, 2), b.Const(ir.W32, 0x1ff))
	one := b.Const(ir.W32, 1)
	loop, exit := b.NewBlock(), b.NewBlock()
	b.Jmp(loop)
	b.SetBlock(loop)
	three := b.Const(ir.W32, 3)
	b.OpTo(ir.OpAdd, ir.W32, s, s, three)
	b.OpTo(ir.OpMul, ir.W8, s, s, s)
	b.Ext(ir.W8, s)
	g := b.LoadG(ir.W16, 0)
	b.Ext(ir.W16, g)
	b.OpTo(ir.OpAdd, ir.W32, s, s, g)
	e := b.ArrLoad(ir.W8, false, arr, b.Const(ir.W32, 2))
	b.Ext(ir.W8, e)
	b.OpTo(ir.OpAdd, ir.W32, s, s, e)
	b.Ext(ir.W32, s)
	b.OpTo(ir.OpAdd, ir.W32, i, i, one)
	b.Ext(ir.W32, i)
	b.Br(ir.W32, ir.CondLT, i, n, loop, exit)
	b.SetBlock(exit)
	// Second loop: the MiniJava shape, a sub feeding the loop test and an
	// add before the back edge, no ext in sight.
	zero := b.Const(ir.W32, 0)
	m := b.Const(ir.W32, 400)
	d := b.Fn.NewReg()
	loop2, body2, exit2 := b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Jmp(loop2)
	b.SetBlock(loop2)
	e2 := b.ArrLoad(ir.W8, false, arr, b.Const(ir.W32, 2))
	b.OpTo(ir.OpAdd, ir.W32, s, s, e2)
	b.OpTo(ir.OpSub, ir.W32, d, m, i)
	b.Br(ir.W32, ir.CondGT, d, zero, body2, exit2)
	b.SetBlock(body2)
	b.OpTo(ir.OpAdd, ir.W32, i, i, one)
	b.Jmp(loop2)
	b.SetBlock(exit2)
	b.Print(ir.W32, s)
	b.Ret(ir.NoReg)
	prog.AddFunc(b.Fn)

	for _, mode := range []Mode{Mode32, Mode64} {
		opt := Options{Mode: mode, Profile: true, Cost: target.CostModel(ir.IA64)}
		sw, th, swErr, thErr := runBoth(t, prog, opt)
		assertIdentical(t, fmt.Sprintf("narrow/mode%d", mode), sw, th, swErr, thErr)
	}
}

// TestDispatchIdentityTraps covers mid-segment traps, where the threaded
// fast path must roll its optimistic segment accounting back to the walker's
// exact totals.
func TestDispatchIdentityTraps(t *testing.T) {
	build := func(f func(b *ir.Builder)) *ir.Program {
		prog := ir.NewProgram()
		b := ir.NewFunc("main")
		f(b)
		prog.AddFunc(b.Fn)
		return prog
	}
	cases := map[string]*ir.Program{
		"div-zero-mid-block": build(func(b *ir.Builder) {
			x := b.Const(ir.W32, 7)
			b.Ext(ir.W32, x) // counted ext before the trap
			y := b.Const(ir.W32, 0)
			q := b.Div(ir.W32, x, y)
			b.Print(ir.W32, q)
			b.Ret(ir.NoReg)
		}),
		"bounds-after-print": build(func(b *ir.Builder) {
			arr := b.NewArr(ir.W32, false, b.Const(ir.W32, 2))
			b.Print(ir.W32, b.Const(ir.W32, 11)) // output before the trap must survive
			v := b.ArrLoad(ir.W32, false, arr, b.Const(ir.W32, 9))
			b.Print(ir.W32, v)
			b.Ret(ir.NoReg)
		}),
		"neg-array-size": build(func(b *ir.Builder) {
			b.NewArr(ir.W32, false, b.Const(ir.W32, -3))
			b.Ret(ir.NoReg)
		}),
		"explicit-trap": build(func(b *ir.Builder) {
			b.Print(ir.W32, b.Const(ir.W32, 1))
			then, els := b.NewBlock(), b.NewBlock()
			z := b.Const(ir.W32, 0)
			b.Br(ir.W32, ir.CondEQ, z, z, then, els)
			b.SetBlock(then)
			blk := b.Block()
			blk.InsertAt(len(blk.Instrs), b.Fn.NewInstr(ir.OpTrap))
			b.SetBlock(els)
			b.Ret(ir.NoReg)
		}),
	}
	cost := target.CostModel(ir.IA64)
	for name, prog := range cases {
		for _, mode := range []Mode{Mode32, Mode64} {
			opt := Options{Mode: mode, Profile: true, Cost: cost}
			sw, th, swErr, thErr := runBoth(t, prog, opt)
			assertIdentical(t, fmt.Sprintf("%s/mode%d", name, mode), sw, th, swErr, thErr)
			if swErr == nil {
				t.Fatalf("%s: expected a trap", name)
			}
		}
	}
}

// TestThreadedFallsBackForHooks: Trace and OnDef observe individual
// instruction executions, so threaded dispatch must quietly use the walker
// and deliver identical hook streams.
func TestThreadedFallsBackForHooks(t *testing.T) {
	prog := benchProg()
	var swDefs, thDefs []int64
	_, err := Run(prog, "main", Options{Mode: Mode32, Dispatch: DispatchSwitch,
		OnDef: func(_ *ir.Instr, v int64) { swDefs = append(swDefs, v) }})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(prog, "main", Options{Mode: Mode32, Dispatch: DispatchAuto,
		OnDef: func(_ *ir.Instr, v int64) { thDefs = append(thDefs, v) }})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(swDefs, thDefs) {
		t.Fatalf("OnDef streams differ: %d vs %d defs", len(swDefs), len(thDefs))
	}
}

// TestIrregularFunctionFallsBack: a function with a mid-block terminator must
// not compile to bytecode, and the mixed program still runs identically.
func TestIrregularFunctionFallsBack(t *testing.T) {
	prog := ir.NewProgram()
	b := ir.NewFunc("main")
	v := b.Const(ir.W32, 9)
	entry := b.Block()
	exit := b.NewBlock()
	b.Jmp(exit)
	// Walker semantics: a mid-block jump sets the successor but keeps
	// executing the rest of the block. The builder refuses to emit past a
	// terminator, so splice the print in by hand.
	p := b.Fn.NewInstr(ir.OpPrint)
	p.W = ir.W32
	p.Srcs[0] = v
	p.NSrcs = 1
	entry.InsertAt(len(entry.Instrs), p)
	b.SetBlock(exit)
	b.Print(ir.W32, v)
	b.Ret(ir.NoReg)
	prog.AddFunc(b.Fn)

	if bf := compileBC(prog, prog.Func("main")); bf != nil {
		t.Fatal("compileBC accepted an irregular function")
	}
	sw, th, swErr, thErr := runBoth(t, prog, Options{Mode: Mode32})
	assertIdentical(t, "irregular", sw, th, swErr, thErr)
}

// TestMixedTierDispatchIdentity: with per-function modes, as the tiered
// runtime runs them, both dispatchers agree on every observable.
func TestMixedTierDispatchIdentity(t *testing.T) {
	sw, th, swErr, thErr := runBoth(t, stepLimitProg(), Options{
		Mode:    Mode64,
		Cost:    target.CostModel(ir.IA64),
		Profile: true,
		FuncMode: func(name string) Mode {
			if name == "f" {
				return Mode32
			}
			return Mode64
		},
	})
	assertIdentical(t, "mixed tiers", sw, th, swErr, thErr)
	// Only the Mode32 frames are profiled: f's 25 entries, nothing of main.
	if fp := sw.Profile["f"]; fp == nil || fp.Calls != 25 {
		t.Fatalf("f's profile = %+v, want 25 entries", fp)
	}
	if fp := sw.Profile["main"]; fp != nil {
		t.Fatalf("Mode64 main was profiled: %+v", fp)
	}
}
