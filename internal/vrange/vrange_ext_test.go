package vrange_test

import (
	"testing"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/extelim"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/peep"
	. "signext/internal/vrange"
)

func TestRangeAlgebra(t *testing.T) {
	a := Range{-5, 10}
	b := Range{0, 20}
	if u := a.Union(b); u != (Range{-5, 20}) {
		t.Errorf("union: %v", u)
	}
	if i := a.Intersect(b); i != (Range{0, 10}) {
		t.Errorf("intersect: %v", i)
	}
	if !b.NonNeg() || a.NonNeg() {
		t.Error("NonNeg")
	}
	if !Bottom().IsBottom() || !Bottom().Within(5, 4) {
		t.Error("bottom")
	}
	if bot := a.Intersect(Range{11, 12}); !bot.IsBottom() {
		t.Errorf("disjoint intersect: %v", bot)
	}
	if Bottom().Union(a) != a || a.Union(Bottom()) != a {
		t.Error("bottom is the union identity")
	}
}

// Property: Union over-approximates membership; Intersect is exact.
func analyzeSrc(t *testing.T, src string) (*ir.Func, *Analysis) {
	t.Helper()
	cu, err := minijava.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := cu.Prog.Func("main")
	extelim.Convert64(fn, ir.IA64)
	info := cfg.Compute(fn)
	ch := chains.Build(fn, info)
	return fn, Compute(fn, ch, info, ir.IA64, 0)
}

func findOp(fn *ir.Func, op ir.Op) *ir.Instr {
	var found *ir.Instr
	fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
		if found == nil && ins.Op == op {
			found = ins
		}
	})
	return found
}

// TestLoopCounterRange: the canonical for-loop counter gets a tight,
// non-negative range through directional widening plus the dominating
// i<n condition.
func TestLoopCounterRange(t *testing.T) {
	fn, vr := analyzeSrc(t, `
		void main() {
			int n = 100;
			int s = 0;
			for (int i = 0; i < n; i++) { s = s + i; }
			print(s);
		}`)
	// Find the counter increment: the same-register add whose second operand
	// is the constant 1 (s += i uses a non-constant operand).
	var inc *ir.Instr
	fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
		if ins.Op == ir.OpAdd && ins.Dst == ins.Srcs[0] && inc == nil {
			if c, ok := vr.ConstOperand(ins, 1); ok && c == 1 {
				inc = ins
			}
		}
	})
	if inc == nil {
		t.Fatal("no increment found")
	}
	r, ok := vr.OfDefRange(inc)
	if !ok || !(r.Lo >= 1 && r.Hi <= 100) {
		t.Fatalf("increment range = %v (want within [1,100])", r)
	}
	op0 := vr.OfOperandAt(inc, 0)
	if !op0.Within(0, 99) {
		t.Fatalf("refined counter operand = %v (want within [0,99])", op0)
	}
}

// TestProductRange: i*n with bounded factors stays exact, enabling the
// extended-arithmetic deduction the flattened-matrix subscripts need.
func TestProductRange(t *testing.T) {
	fn, vr := analyzeSrc(t, `
		void main() {
			int n = 24;
			int[] a = new int[n * n];
			for (int i = 0; i < n; i++) {
				for (int j = 0; j < n; j++) { a[i * n + j] = i + j; }
			}
			print(a[100]);
		}`)
	var mul *ir.Instr
	fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
		if ins.Op == ir.OpMul && mul == nil && ins.Blk != fn.Entry() {
			mul = ins
		}
	})
	if mul == nil {
		t.Fatal("no multiply found")
	}
	r, ok := vr.OfDefRange(mul)
	if !ok || !r.Within(0, 552) {
		t.Fatalf("i*n range = %v (want within [0, 552])", r)
	}
}

// TestDummyRange: the just_extended marker carries the bounds-check
// postcondition [0, maxlen-1].
func TestDummyRange(t *testing.T) {
	b := ir.NewFunc("main", ir.Param{Ref: true}, ir.Param{W: ir.W32})
	i := ir.Reg(1)
	v := b.ArrLoad(ir.W32, false, ir.Reg(0), i)
	d := b.Fn.NewInstr(ir.OpExtDummy)
	d.W = ir.W32
	d.Dst = i
	d.Srcs[0] = i
	d.NSrcs = 1
	d.Blk = b.Block()
	b.Block().Instrs = append(b.Block().Instrs, d)
	b.Print(ir.W32, v)
	b.Ret(ir.NoReg)
	info := cfg.Compute(b.Fn)
	ch := chains.Build(b.Fn, info)
	vr := Compute(b.Fn, ch, info, ir.IA64, 1000)
	r, ok := vr.OfDefRange(d)
	if !ok || !r.Within(0, 999) {
		t.Fatalf("dummy range = %v (want within [0, 999])", r)
	}
}

// TestRuntimeSoundness is the load-bearing property: every range the
// analysis claims must contain the semantic value of every runtime
// definition. Violations would silently license unsound extension removal.
func TestRuntimeSoundness(t *testing.T) {
	srcs := []string{
		`void main() {
			int n = 50; int s = 0;
			for (int i = 0; i < n; i++) {
				for (int j = i; j < n; j++) { s += i * j; }
			}
			print(s);
		}`,
		`void main() {
			int x = 2147483640;
			for (int k = 0; k < 20; k++) { x = x + 1; print(x); }
		}`,
		`static int seed = 9;
		int rnd() { seed = seed * 1103515245 + 12345; return (seed >>> 8) & 0xffff; }
		void main() {
			int[] a = new int[64];
			for (int i = 0; i < a.length; i++) { a[i] = rnd() - 40000; }
			int t = 0;
			int i = a.length;
			do { i = i - 1; t += a[i] % 97; } while (i > 0);
			print(t);
		}`,
		`void main() {
			int v = -2147483648;
			int w = v - 1;      // wraps to MaxInt32
			print(w);
			int u = v * 3;
			print(u);
		}`,
	}
	for si, src := range srcs {
		cu, err := minijava.Compile(src)
		if err != nil {
			t.Fatalf("src %d: %v", si, err)
		}
		analyses := map[string]*Analysis{}
		for _, fn := range cu.Prog.Funcs {
			extelim.Convert64(fn, ir.IA64)
			info := cfg.Compute(fn)
			ch := chains.Build(fn, info)
			analyses[fn.Name] = Compute(fn, ch, info, ir.IA64, 0)
		}
		violations := 0
		_, err = interp.Run(cu.Prog, "main", interp.Options{
			Mode:    interp.Mode64,
			Machine: ir.IA64,
			OnDef: func(ins *ir.Instr, raw int64) {
				if violations > 3 || ins.Blk == nil || ins.Blk.Fn == nil {
					return
				}
				vr := analyses[ins.Blk.Fn.Name]
				if vr == nil {
					return
				}
				kinds := ir.Kinds(ins.Blk.Fn)
				if int(ins.Dst) >= len(kinds) || kinds[ins.Dst] != ir.KInt32 && kinds[ins.Dst] != ir.KInt64 {
					return
				}
				r, ok := vr.OfDefRange(ins)
				if !ok || r.IsBottom() {
					return
				}
				sem := raw
				if ins.W != ir.W64 && kinds[ins.Dst] == ir.KInt32 {
					sem = ir.W32.SignExt(raw)
				}
				if sem < r.Lo || sem > r.Hi {
					violations++
					t.Errorf("src %d: %s produced %d outside claimed range [%d, %d]",
						si, ins, sem, r.Lo, r.Hi)
				}
			},
		})
		if err != nil {
			t.Fatalf("src %d: run: %v", si, err)
		}
	}
}

// TestRefineByCond covers the constraint derivations, including the unsigned
// bounds-check form.

// TestOperandFactsFixedAtCompute: what an operand query learns from the
// block and the dominating branches is fixed when first asked, and Compute's
// transfers count as asking, so a later edit to the block (as peep makes
// mid-round) does not change the answer for an operand Compute read.
func TestOperandFactsFixedAtCompute(t *testing.T) {
	fn, vr := analyzeSrc(t, `
		void main() {
			int n = 100;
			int s = 0;
			for (int i = 0; i < n; i++) { s = s + i; }
			print(s);
		}`)
	var inc *ir.Instr
	fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
		if ins.Op == ir.OpAdd && ins.Dst == ins.Srcs[0] && inc == nil {
			if c, ok := vr.ConstOperand(ins, 1); ok && c == 1 {
				inc = ins
			}
		}
	})
	if inc == nil {
		t.Fatal("no increment found")
	}
	// Redefine the counter ahead of the increment: asked afresh, the
	// dominating i < n would no longer apply.
	redef := fn.NewInstr(ir.OpConst)
	redef.W, redef.Dst, redef.Const = ir.W32, inc.Srcs[0], 500
	inc.Blk.InsertBefore(inc, redef)
	if r := vr.OfOperandAt(inc, 0); !r.Within(0, 99) {
		t.Fatalf("counter operand after the edit = %v, want the [0,99] Compute saw", r)
	}
}

// TestOperandAtWithoutDefinitions: operand queries on instructions without a
// destination (here a branch) work when no definition in the function reads
// a register, so Compute laid out no condition sites at all; peep's br-fold
// makes exactly that query.
func TestOperandAtWithoutDefinitions(t *testing.T) {
	const src = `
func f(r0 i32, r1 i32) {
b0:
	br.32.lt r0 r1 -> b1, b2
b1:
	ret
b2:
	ret
}
`
	prog, err := ir.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Func("f")
	info := cfg.Compute(fn)
	a := Compute(fn, chains.Build(fn, info), info, ir.IA64, 0)
	br := findOp(fn, ir.OpBr)
	for op := 0; op < 2; op++ {
		if r := a.OfOperandAt(br, op); r != Full32() {
			t.Errorf("parameter operand %d = %v, want %v", op, r, Full32())
		}
	}
	if st := peep.Run(prog.Clone().Func("f"), peep.Config{Machine: ir.IA64}); st.Rewrites != 0 {
		t.Errorf("peep rewrote an undecided branch: %+v", st.ByRule)
	}
}
