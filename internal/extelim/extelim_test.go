package extelim

import (
	"testing"

	"signext/internal/cfg"
	"signext/internal/ir"
)

// TestConvert64GeneratesAfterDirtyDefs checks the generation rule on each
// definition class.
func TestConvert64GeneratesAfterDirtyDefs(t *testing.T) {
	b := ir.NewFunc("g", ir.Param{W: ir.W32}, ir.Param{Ref: true})
	x := ir.Reg(0)
	add := b.Add(ir.W32, x, x)                               // dirty: ext expected
	bit := b.And(ir.W32, add, x)                             // through: ext expected (Figure 3 (7))
	dv := b.Div(ir.W32, add, bit)                            // extended by the divide routine: no ext
	ln := b.ArrLen(ir.Reg(1))                                // extended: no ext
	l := b.Add(ir.W64, b.Mov(ir.W64, dv), b.Mov(ir.W64, ln)) // 64-bit: no ext
	b.Print(ir.W64, l)
	b.Ret(ir.NoReg)

	n := Convert64(b.Fn, ir.IA64)
	if n != 2 {
		t.Fatalf("generated %d extensions, want 2 (after add, after and):\n%s", n, b.Fn.Format())
	}
	entry := b.Fn.Entry()
	for k, ins := range entry.Instrs {
		if ins.IsExt() {
			prev := entry.Instrs[k-1]
			if prev.Op != ir.OpAdd && prev.Op != ir.OpAnd {
				t.Errorf("extension after %s, want only after add/and", prev)
			}
			if ins.Dst != ins.Srcs[0] || ins.Dst != prev.Dst {
				t.Errorf("generated extension not in canonical form: %s", ins)
			}
		}
	}
}

// TestInsertOnlyInLoopMethods: the paper applies insertion only to methods
// containing a loop.
func TestInsertOnlyInLoopMethods(t *testing.T) {
	build := func(withLoop bool) *ir.Func {
		b := ir.NewFunc("m", ir.Param{W: ir.W32})
		x := b.Add(ir.W32, ir.Reg(0), ir.Reg(0))
		if withLoop {
			loop, exit := b.NewBlock(), b.NewBlock()
			b.Jmp(loop)
			b.SetBlock(loop)
			b.OpTo(ir.OpAdd, ir.W32, x, x, ir.Reg(0))
			b.Br(ir.W32, ir.CondLT, x, ir.Reg(0), loop, exit)
			b.SetBlock(exit)
		}
		d := b.I2D(x)
		b.FPrint(d)
		b.Ret(ir.NoReg)
		return b.Fn
	}
	noLoop := build(false)
	Convert64(noLoop, ir.IA64)
	st := Eliminate(noLoop, Config{Machine: ir.IA64, Insert: true, Order: true, Array: true})
	if st.Inserted != 0 {
		t.Fatalf("insertion ran on a loop-free method (%d inserted)", st.Inserted)
	}
	withLoop := build(true)
	Convert64(withLoop, ir.IA64)
	st = Eliminate(withLoop, Config{Machine: ir.IA64, Insert: true, Order: true, Array: true})
	if st.Inserted == 0 {
		t.Fatal("insertion skipped a loop method")
	}
}

// TestDummySkipsOverwrittenIndex: "unless an array index is overwritten
// immediately, as in the case of i = a[i]".
func TestDummySkipsOverwrittenIndex(t *testing.T) {
	b := ir.NewFunc("d", ir.Param{Ref: true}, ir.Param{W: ir.W32})
	i := ir.Reg(1)
	b.ArrLoadTo(ir.W32, false, i, ir.Reg(0), i) // i = a[i]
	v := b.ArrLoad(ir.W32, false, ir.Reg(0), i) // v = a[i]
	b.Print(ir.W32, v)
	b.Ret(ir.NoReg)
	kinds := ir.Kinds(b.Fn)
	n := insertDummies(b.Fn, kinds)
	if n != 1 {
		t.Fatalf("inserted %d dummies, want 1 (skip the overwritten index):\n%s",
			n, b.Fn.Format())
	}
	// The surviving dummy must follow the second access.
	entry := b.Fn.Entry()
	for k, ins := range entry.Instrs {
		if ins.IsDummy() && entry.Instrs[k-1].Op == ir.OpArrLoad &&
			entry.Instrs[k-1].Srcs[1] == i && entry.Instrs[k-1].Dst == i {
			t.Fatalf("dummy after the overwriting access:\n%s", b.Fn.Format())
		}
	}
}

// TestCrossRegisterDemotion: a fused copy+extend whose value is already
// extended becomes a plain mov.
func TestCrossRegisterDemotion(t *testing.T) {
	b := ir.NewFunc("x", ir.Param{W: ir.W32})
	src := ir.Reg(0) // parameters arrive extended
	dst := b.Fn.NewReg()
	ext := b.ExtTo(ir.W32, dst, src)
	d := b.I2D(dst)
	b.FPrint(d)
	b.Ret(ir.NoReg)
	st := Eliminate(b.Fn, Config{Machine: ir.IA64})
	if st.Eliminated != 1 {
		t.Fatalf("cross-register extension not eliminated:\n%s", b.Fn.Format())
	}
	if ext.Op != ir.OpMov {
		t.Fatalf("demotion should leave a mov, got %s", ext)
	}
	if b.Fn.CountOp(ir.OpExt) != 0 {
		t.Fatal("extension still present")
	}
}

// TestUDDirectionElimination: "source already extended" removes an extension
// even when its uses demand full registers.
func TestUDDirectionElimination(t *testing.T) {
	b := ir.NewFunc("u", ir.Param{W: ir.W32})
	x := ir.Reg(0)
	r := b.Mov(ir.W32, x) // copy of an extended parameter
	ext := b.Ext(ir.W32, r)
	_ = ext
	d := b.I2D(r) // demands a full register
	b.FPrint(d)
	b.Ret(ir.NoReg)
	st := Eliminate(b.Fn, Config{Machine: ir.IA64})
	if st.Eliminated != 1 || b.Fn.CountOp(ir.OpExt) != 0 {
		t.Fatalf("UD-direction elimination failed:\n%s", b.Fn.Format())
	}
}

// TestDUKeptWhenDemanded: a genuinely needed extension survives.
func TestDUKeptWhenDemanded(t *testing.T) {
	b := ir.NewFunc("k", ir.Param{W: ir.W32})
	x := b.Add(ir.W32, ir.Reg(0), ir.Reg(0)) // dirty
	b.Ext(ir.W32, x)
	d := b.I2D(x)
	b.FPrint(d)
	b.Ret(ir.NoReg)
	st := Eliminate(b.Fn, Config{Machine: ir.IA64, Array: true, Order: true, Insert: true})
	if b.Fn.CountOp(ir.OpExt) != 1 {
		t.Fatalf("needed extension removed (eliminated=%d):\n%s", st.Eliminated, b.Fn.Format())
	}
}

// TestChainedSameRegExtsKeepSecond: two chained same-register extensions
// over a dirty definition. The first is removable (its only use, the second
// extension, reads just the low word); the second must survive because the
// div demands a clean full register. Deciding the second extension on stale
// chains — still pointing at the first, removed extension, which looks like
// an already-extended source — would wrongly eliminate it too and let the
// div read dirty upper bits.
func TestChainedSameRegExtsKeepSecond(t *testing.T) {
	b := ir.NewFunc("chained", ir.Param{W: ir.W32})
	r := b.Fn.NewReg()
	b.OpTo(ir.OpAdd, ir.W32, r, ir.Reg(0), ir.Reg(0)) // dirty def
	e1 := b.Ext(ir.W32, r)
	e2 := b.Ext(ir.W32, r)
	q := b.Div(ir.W64, r, r)
	b.Print(ir.W64, q)
	b.Ret(ir.NoReg)

	st := Eliminate(b.Fn, Config{Machine: ir.IA64})
	if st.Eliminated != 1 {
		t.Fatalf("eliminated %d extensions, want exactly 1 (the redundant first):\n%s",
			st.Eliminated, b.Fn.Format())
	}
	if e1.Blk != nil {
		t.Fatalf("redundant first extension survived:\n%s", b.Fn.Format())
	}
	if e2.Blk == nil || e2.Op != ir.OpExt {
		t.Fatalf("required second extension wrongly removed — the div now reads dirty upper bits:\n%s",
			b.Fn.Format())
	}
}

// TestNarrowWidthElimination: 8- and 16-bit extensions obey the same
// algorithm ("8-bit and 16-bit sign extensions are also eliminated").
func TestNarrowWidthElimination(t *testing.T) {
	b := ir.NewFunc("n", ir.Param{W: ir.W32})
	x := ir.Reg(0)
	v := b.Mov(ir.W32, x)
	b.Ext(ir.W8, v)  // byte cast
	b.Ext(ir.W8, v)  // redundant: source extended from 8
	b.Ext(ir.W16, v) // redundant: 8-extended implies 16-extended
	d := b.I2D(v)
	b.FPrint(d)
	b.Ret(ir.NoReg)
	Eliminate(b.Fn, Config{Machine: ir.IA64})
	// The first ext.8 must survive (v is a full int), the second and the
	// ext.16 must go.
	n8, n16 := 0, 0
	b.Fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
		if ins.IsExt() {
			if ins.W == ir.W8 {
				n8++
			} else {
				n16++
			}
		}
	})
	if n8 != 1 || n16 != 0 {
		t.Fatalf("narrow elimination wrong: %d ext.8, %d ext.16:\n%s", n8, n16, b.Fn.Format())
	}
}

// TestPDEInsertSinks: the PDE-style variant moves an extension forward past
// independent instructions.
func TestPDEInsertSinks(t *testing.T) {
	b := ir.NewFunc("p", ir.Param{W: ir.W32})
	x := b.Add(ir.W32, ir.Reg(0), ir.Reg(0))
	ext := b.Ext(ir.W32, x)
	y := b.Add(ir.W32, ir.Reg(0), ir.Reg(0)) // independent of x
	z := b.Add(ir.W32, y, y)                 // independent of x
	d := b.I2D(x)
	b.FPrint(d)
	b.Print(ir.W32, z)
	b.Ret(ir.NoReg)
	info := cfg.Compute(b.Fn)
	insertPDE(b.Fn, info)
	entry := b.Fn.Entry()
	idx := entry.IndexOf(ext)
	// The ext must now sit immediately before the i2d (its latest point).
	if entry.Instrs[idx+1].Op != ir.OpI2D {
		t.Fatalf("PDE did not sink the extension to its use:\n%s", b.Fn.Format())
	}
}

// TestGenUseWidths: generation before uses picks the operand's natural
// width (sxt1 for byte elements feeding int arithmetic).
func TestGenUseWidths(t *testing.T) {
	b := ir.NewFunc("w", ir.Param{Ref: true}, ir.Param{W: ir.W32})
	v := b.ArrLoad(ir.W8, false, ir.Reg(0), ir.Reg(1)) // byte element
	s := b.Add(ir.W32, v, ir.Reg(1))                   // int use: needs ext.8
	d := b.I2D(s)                                      // needs ext.32 of the dirty add
	b.FPrint(d)
	b.Ret(ir.NoReg)
	n := ConvertGenUse(b.Fn, ir.IA64)
	if n != 2 {
		t.Fatalf("gen-use inserted %d, want 2:\n%s", n, b.Fn.Format())
	}
	var w8, w32 int
	b.Fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
		if ins.IsExt() {
			switch ins.W {
			case ir.W8:
				w8++
			case ir.W32:
				w32++
			}
		}
	})
	if w8 != 1 || w32 != 1 {
		t.Fatalf("gen-use widths: %d ext.8 and %d ext.32:\n%s", w8, w32, b.Fn.Format())
	}
}

// TestGenUseMixedWidths pins the sxfuzz-found miscompile where a byte load
// (valid to 8 bits) and a 32-bit value reach the same full-register use on
// different paths: one ext.32 before the use cannot repair the byte path,
// and one ext.8 would corrupt the 32-bit path. Gen-use must extend the
// narrow producer at its definition and only then extend from 32 at the use.
func TestGenUseMixedWidths(t *testing.T) {
	b := ir.NewFunc("m", ir.Param{Ref: true}, ir.Param{W: ir.W32})
	arr, x := ir.Reg(0), ir.Reg(1)
	v := b.Mov(ir.W32, x)
	thenB, joinB := b.NewBlock(), b.NewBlock()
	b.Br(ir.W32, ir.CondLT, x, v, thenB, joinB)
	b.SetBlock(thenB)
	load := b.Fn.NewInstr(ir.OpArrLoad)
	load.W = ir.W8
	load.Dst = v
	load.Srcs[0], load.Srcs[1] = arr, x
	load.NSrcs = 2
	thenB.InsertAt(0, load)
	b.Jmp(joinB)
	b.SetBlock(joinB)
	b.Print(ir.W32, v)
	b.Ret(ir.NoReg)

	ConvertGenUse(b.Fn, ir.IA64)
	// The byte load must carry its own trailing ext.8.
	next := load.Blk.Instrs[1]
	if !next.IsExt() || next.W != ir.W8 || next.Dst != v {
		t.Fatalf("byte load not extended at its definition:\n%s", b.Fn.Format())
	}
	// The use still needs an ext.32 for the 32-bit path.
	var w32 int
	for _, ins := range joinB.Instrs {
		if ins.IsExt() && ins.W == ir.W32 && ins.Dst == v {
			w32++
		}
	}
	if w32 != 1 {
		t.Fatalf("expected one ext.32 before the full-register use:\n%s", b.Fn.Format())
	}
}

// TestFirstAlgorithmKeepsLatest: with two extensions in sequence and a full
// demand downstream, backward dataflow keeps the later one (the paper's
// third limitation).
func TestFirstAlgorithmKeepsLatest(t *testing.T) {
	b := ir.NewFunc("l", ir.Param{W: ir.W32})
	x := b.Add(ir.W32, ir.Reg(0), ir.Reg(0))
	e1 := b.Ext(ir.W32, x)
	e2 := b.Ext(ir.W32, x)
	d := b.I2D(x)
	b.FPrint(d)
	b.Ret(ir.NoReg)
	removed := FirstAlgorithm(b.Fn)
	if removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if e1.Blk != nil {
		t.Fatal("the earlier extension should be the one removed")
	}
	if e2.Blk == nil {
		t.Fatal("the latest extension must survive")
	}
}

// TestNarrowSumOfExtendedSources: an add.32 or sub.32 whose sources are
// sign-extended from at most 31 bits cannot wrap, so its extension goes
// even when value ranges know nothing (narrow parameters range over the
// whole 32-bit band), and stays when a source is a full 32-bit value.
func TestNarrowSumOfExtendedSources(t *testing.T) {
	build := func(op ir.Op, w2 ir.Width) *ir.Func {
		b := ir.NewFunc("s", ir.Param{W: ir.W8}, ir.Param{W: w2})
		s := b.Fn.NewReg()
		b.OpTo(op, ir.W32, s, ir.Reg(0), ir.Reg(1))
		b.Ext(ir.W32, s)
		b.Ret(s)
		b.Fn.RetW = ir.W32
		return b.Fn
	}
	for _, tc := range []struct {
		op   ir.Op
		w2   ir.Width
		want int // extensions left
	}{
		{ir.OpAdd, ir.W16, 0},
		{ir.OpSub, ir.W16, 0},
		{ir.OpAdd, ir.W32, 1},
		{ir.OpSub, ir.W32, 1},
	} {
		fn := build(tc.op, tc.w2)
		Eliminate(fn, Config{Machine: ir.IA64})
		if got := fn.CountOp(ir.OpExt); got != tc.want {
			t.Errorf("%v.32 of i8 and i%d: %d extensions left, want %d:\n%s", tc.op, tc.w2, got, tc.want, fn.Format())
		}
	}
}
