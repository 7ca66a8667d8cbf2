package ir

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestWidthSignExt(t *testing.T) {
	cases := []struct {
		w    Width
		in   int64
		want int64
	}{
		{W8, 0x7f, 127},
		{W8, 0x80, -128},
		{W8, 0x1ff, -1},
		{W16, 0x8000, -32768},
		{W16, 0x7fff, 32767},
		{W32, 0x80000000, math.MinInt32},
		{W32, 0x7fffffff, math.MaxInt32},
		{W32, 0x1_00000005, 5},
		{W64, -17, -17},
	}
	for _, c := range cases {
		if got := c.w.SignExt(c.in); got != c.want {
			t.Errorf("SignExt(%d, %#x) = %d, want %d", c.w, c.in, got, c.want)
		}
	}
}

func TestWidthZeroExt(t *testing.T) {
	if got := W8.ZeroExt(-1); got != 255 {
		t.Errorf("ZeroExt8(-1) = %d", got)
	}
	if got := W16.ZeroExt(-1); got != 65535 {
		t.Errorf("ZeroExt16(-1) = %d", got)
	}
	if got := W32.ZeroExt(-1); got != 0xffffffff {
		t.Errorf("ZeroExt32(-1) = %d", got)
	}
	if got := W64.ZeroExt(-1); got != -1 {
		t.Errorf("ZeroExt64(-1) = %d", got)
	}
}

// Property: sign extension is idempotent and agrees with Go's native
// narrowing conversions.
func TestWidthSignExtProperties(t *testing.T) {
	f := func(v int64) bool {
		return W8.SignExt(v) == int64(int8(v)) &&
			W16.SignExt(v) == int64(int16(v)) &&
			W32.SignExt(v) == int64(int32(v)) &&
			W32.SignExt(W32.SignExt(v)) == W32.SignExt(v) &&
			W8.SignExt(W8.SignExt(v)) == W8.SignExt(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a value is InRange exactly when extension does not change it.
func TestWidthInRangeProperty(t *testing.T) {
	f := func(v int64) bool {
		for _, w := range []Width{W8, W16, W32} {
			if w.InRange(v) != (w.SignExt(v) == v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCondEvalAndNegate(t *testing.T) {
	vals := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	conds := []Cond{CondEQ, CondNE, CondLT, CondLE, CondGT, CondGE, CondULT, CondULE, CondUGT, CondUGE}
	for _, c := range conds {
		for _, a := range vals {
			for _, b := range vals {
				if c.Eval(a, b) == c.Negate().Eval(a, b) {
					t.Fatalf("%v and its negation agree on (%d, %d)", c, a, b)
				}
			}
		}
	}
	if !CondULT.Eval(0, -1) {
		t.Error("0 <u -1 should hold (unsigned)")
	}
	if CondLT.Eval(0, -1) {
		t.Error("0 < -1 must not hold (signed)")
	}
}

func buildLoopFunc() *Func {
	b := NewFunc("f", Param{W: W32})
	i := b.Fn.NewReg()
	b.ConstTo(W32, i, 0)
	loop := b.NewBlock()
	exit := b.NewBlock()
	b.Jmp(loop)
	b.SetBlock(loop)
	b.OpTo(OpAdd, W32, i, i, Reg(0))
	b.Br(W32, CondLT, i, Reg(0), loop, exit)
	b.SetBlock(exit)
	b.Print(W32, i)
	b.Ret(NoReg)
	return b.Fn
}

func TestVerifyAcceptsWellFormed(t *testing.T) {
	fn := buildLoopFunc()
	if err := fn.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsBrokenCFG(t *testing.T) {
	fn := buildLoopFunc()
	// Break a pred edge.
	loop := fn.Blocks[1]
	loop.Preds = loop.Preds[:1]
	if err := fn.Verify(); err == nil {
		t.Fatal("verify accepted a broken pred list")
	}
}

func TestVerifyRejectsMisplacedTerminator(t *testing.T) {
	fn := buildLoopFunc()
	entry := fn.Entry()
	// Append an instruction after the terminator.
	ins := fn.NewInstr(OpConst)
	ins.Dst = fn.NewReg()
	ins.Blk = entry
	entry.Instrs = append(entry.Instrs, ins)
	if err := fn.Verify(); err == nil {
		t.Fatal("verify accepted an instruction after the terminator")
	}
}

func TestCloneIndependence(t *testing.T) {
	fn := buildLoopFunc()
	cl := fn.Clone()
	if err := cl.Verify(); err != nil {
		t.Fatal(err)
	}
	// Mutating the clone must not affect the original.
	cl.Blocks[1].Instrs[0].Const = 999
	cl.Blocks[1].Remove(cl.Blocks[1].Instrs[0])
	if len(fn.Blocks[1].Instrs) != 2 {
		t.Fatal("clone mutation leaked into the original")
	}
	for _, b := range cl.Blocks {
		for _, s := range b.Succs {
			if s.Fn != cl {
				t.Fatal("clone references original blocks")
			}
		}
	}
}

func TestBlockInsertRemove(t *testing.T) {
	fn := buildLoopFunc()
	loop := fn.Blocks[1]
	add := loop.Instrs[0]
	ext := fn.NewInstr(OpExt)
	ext.W = W32
	ext.Dst = add.Dst
	ext.Srcs[0] = add.Dst
	ext.NSrcs = 1
	loop.InsertAfter(add, ext)
	if loop.IndexOf(ext) != 1 {
		t.Fatal("InsertAfter misplaced the instruction")
	}
	if err := fn.Verify(); err != nil {
		t.Fatal(err)
	}
	loop.Remove(ext)
	if loop.IndexOf(ext) != -1 || ext.Blk != nil {
		t.Fatal("Remove left residue")
	}
}

func TestKinds(t *testing.T) {
	b := NewFunc("k", Param{W: W32}, Param{W: W64}, Param{Float: true}, Param{Ref: true})
	i32 := b.Add(W32, Reg(0), Reg(0))
	l := b.Mov(W64, i32) // widening copy
	d := b.I2D(i32)
	n := b.ArrLen(Reg(3))
	narrow := b.Mov(W32, Reg(1)) // narrowing copy
	b.Print(W32, n)
	b.Print(W32, narrow)
	b.Print(W64, l)
	b.FPrint(d)
	b.Ret(NoReg)
	ks := Kinds(b.Fn)
	for r, want := range map[Reg]Kind{
		0: KInt32, 1: KInt64, 2: KFloat, 3: KRef,
		i32: KInt32, l: KInt64, d: KFloat, n: KInt32, narrow: KInt32,
	} {
		if ks[r] != want {
			t.Errorf("kind(%v) = %v, want %v", r, ks[r], want)
		}
	}
}

func TestUseOfClassification(t *testing.T) {
	b := NewFunc("u", Param{W: W32}, Param{Ref: true})
	x := Reg(0)
	arr := Reg(1)
	add := b.Fn.NewInstr(OpAdd)
	add.W = W32
	add.Srcs[0], add.Srcs[1] = x, x
	add.NSrcs = 2
	if u := UseOf(add, 0); u.Class != UseThrough || u.Bits != 32 {
		t.Errorf("add32 operand: %+v", u)
	}
	ld := b.Fn.NewInstr(OpArrLoad)
	ld.W = W32
	ld.Srcs[0], ld.Srcs[1] = arr, x
	ld.NSrcs = 2
	if u := UseOf(ld, 0); u.Class != UseRef {
		t.Errorf("array ref operand: %+v", u)
	}
	if u := UseOf(ld, 1); u.Class != UseIndex {
		t.Errorf("array index operand: %+v", u)
	}
	i2d := b.Fn.NewInstr(OpI2D)
	i2d.W = W32
	i2d.Srcs[0] = x
	i2d.NSrcs = 1
	if u := UseOf(i2d, 0); u.Class != UseAll {
		t.Errorf("i2d operand: %+v", u)
	}
	br := b.Fn.NewInstr(OpBr)
	br.W = W32
	br.Srcs[0], br.Srcs[1] = x, x
	br.NSrcs = 2
	if u := UseOf(br, 0); u.Class != UseLow || u.Bits != 32 {
		t.Errorf("cmp4 operand: %+v", u)
	}
	br64 := b.Fn.NewInstr(OpBr)
	br64.W = W64
	br64.Srcs[0], br64.Srcs[1] = x, x
	br64.NSrcs = 2
	if u := UseOf(br64, 0); u.Class != UseAll {
		t.Errorf("cmp8 operand: %+v", u)
	}
	shl := b.Fn.NewInstr(OpShl)
	shl.W = W32
	shl.Srcs[0], shl.Srcs[1] = x, x
	shl.NSrcs = 2
	if u := UseOf(shl, 1); u.Class != UseLow || u.Bits != 8 {
		t.Errorf("shift amount: %+v", u)
	}
}

func TestDefOfClassification(t *testing.T) {
	fn := &Func{Name: "d", NReg: 4}
	mk := func(op Op, w Width) *Instr {
		ins := fn.NewInstr(op)
		ins.W = w
		ins.Dst = 0
		ins.Srcs[0] = 1
		ins.NSrcs = 1
		return ins
	}
	if d := DefOf(mk(OpExt, W32), IA64); d.Class != DefExtended || d.Bits != 32 {
		t.Errorf("ext.32: %+v", d)
	}
	if d := DefOf(mk(OpAdd, W32), IA64); d.Class != DefDirty {
		t.Errorf("add.32: %+v", d)
	}
	if d := DefOf(mk(OpAdd, W64), IA64); d.Class != DefExtended {
		t.Errorf("add.64: %+v", d)
	}
	if d := DefOf(mk(OpMov, W32), IA64); d.Class != DefThrough {
		t.Errorf("mov: %+v", d)
	}
	// Memory reads: zero-extending on IA64, sign-extending on PPC64.
	ld := mk(OpLoadG, W32)
	if d := DefOf(ld, IA64); d.Class != DefDirty || !d.U32Z {
		t.Errorf("ia64 load: %+v", d)
	}
	if d := DefOf(ld, PPC64); d.Class != DefExtended || d.Bits != 32 {
		t.Errorf("ppc64 load: %+v", d)
	}
	c := fn.NewInstr(OpConst)
	c.W = W32
	c.Dst = 0
	c.Const = -5
	if d := DefOf(c, IA64); d.Class != DefExtended || d.Bits != 8 || d.U32Z {
		t.Errorf("const -5: %+v", d)
	}
	c.Const = 300
	if d := DefOf(c, IA64); d.Bits != 16 || !d.U32Z {
		t.Errorf("const 300: %+v", d)
	}
}

func TestFormatMentionsEverything(t *testing.T) {
	fn := buildLoopFunc()
	s := fn.Format()
	for _, want := range []string{"func f(", "b0:", "add.32", "br.32.lt", "print.32", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format() missing %q in:\n%s", want, s)
		}
	}
}

func TestProgramLookup(t *testing.T) {
	p := NewProgram()
	fn := buildLoopFunc()
	p.AddFunc(fn)
	if p.Func("f") != fn || p.Func("missing") != nil {
		t.Fatal("Func lookup broken")
	}
	cl := p.Clone()
	if cl.Func("f") == fn {
		t.Fatal("program clone shares functions")
	}
}

// TestVerifyRejectsIDOutOfRange: dense per-instruction tables index by
// Instr.ID, so Verify rejects an ID outside [0, NumInstrIDs()).
func TestVerifyRejectsIDOutOfRange(t *testing.T) {
	for _, id := range []func(f *Func) int{
		func(f *Func) int { return -1 },
		func(f *Func) int { return f.NumInstrIDs() },
	} {
		b := NewFunc("f")
		ins := b.Print(W32, b.Const(W32, 1))
		b.Ret(NoReg)
		if err := b.Fn.Verify(); err != nil {
			t.Fatal(err)
		}
		ins.ID = id(b.Fn)
		if err := b.Fn.Verify(); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("ID %d accepted: %v", ins.ID, err)
		}
	}
}
