package interp

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"signext/internal/ir"
)

// run executes a single-function program built by build.
func run(t *testing.T, opt Options, build func(b *ir.Builder)) (*Result, error) {
	t.Helper()
	prog := ir.NewProgram()
	prog.NGlobals = 4
	b := ir.NewFunc("main")
	build(b)
	prog.AddFunc(b.Fn)
	if err := b.Fn.Verify(); err != nil {
		t.Fatal(err)
	}
	return Run(prog, "main", opt)
}

// TestDirtyUpperBits is the core fidelity property: in Mode64 a 32-bit add
// leaves the true 64-bit sum in the register, so printing it (a
// full-register consumer) exposes the missing extension, while Mode32
// normalizes.
func TestDirtyUpperBits(t *testing.T) {
	build := func(b *ir.Builder) {
		x := b.Const(ir.W32, math.MaxInt32)
		y := b.Const(ir.W32, 1)
		s := b.Add(ir.W32, x, y)
		b.Print(ir.W32, s)
		b.Ret(ir.NoReg)
	}
	r64, err := run(t, Options{Mode: Mode64}, build)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(r64.Output) != "2147483648" {
		t.Fatalf("Mode64 should expose the dirty register: %q", r64.Output)
	}
	r32, err := run(t, Options{Mode: Mode32}, build)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(r32.Output) != "-2147483648" {
		t.Fatalf("Mode32 must wrap: %q", r32.Output)
	}
}

// TestExtRepairsRegister: the explicit extension turns the dirty register
// back into the wrapped 32-bit value, and is counted.
func TestExtRepairsRegister(t *testing.T) {
	r, err := run(t, Options{Mode: Mode64}, func(b *ir.Builder) {
		x := b.Const(ir.W32, math.MaxInt32)
		y := b.Const(ir.W32, 1)
		s := b.Add(ir.W32, x, y)
		b.Ext(ir.W32, s)
		b.Print(ir.W32, s)
		b.Ret(ir.NoReg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(r.Output) != "-2147483648" {
		t.Fatalf("extension failed to repair: %q", r.Output)
	}
	if r.Ext32() != 1 || r.ExtTotal() != 1 {
		t.Fatalf("extension count: %d", r.Ext32())
	}
}

// TestWildEADetection: an array access whose index register is dirty but
// whose low 32 bits pass the bounds check is a detected miscompile.
func TestWildEADetection(t *testing.T) {
	_, err := run(t, Options{Mode: Mode64, Machine: ir.IA64}, func(b *ir.Builder) {
		n := b.Const(ir.W32, 10)
		a := b.NewArr(ir.W32, false, n)
		// idx = (2^31-1) + (2^31+3): full 2^32+2, low32 = 2.
		x := b.Const(ir.W32, math.MaxInt32)
		y := b.Const(ir.W32, math.MaxInt32)
		s := b.Add(ir.W32, x, y)
		s2 := b.Add(ir.W32, s, b.Const(ir.W32, 4))
		v := b.ArrLoad(ir.W32, false, a, s2)
		b.Print(ir.W32, v)
		b.Ret(ir.NoReg)
	})
	if !errors.Is(err, ErrWildEA) {
		t.Fatalf("want wild-EA detection, got %v", err)
	}
}

func TestBoundsCheckUsesLow32(t *testing.T) {
	// Negative low 32 bits trap as out-of-bounds (Java semantics).
	_, err := run(t, Options{Mode: Mode64}, func(b *ir.Builder) {
		n := b.Const(ir.W32, 10)
		a := b.NewArr(ir.W32, false, n)
		idx := b.Const(ir.W32, -1)
		v := b.ArrLoad(ir.W32, false, a, idx)
		b.Print(ir.W32, v)
		b.Ret(ir.NoReg)
	})
	if !errors.Is(err, ErrBounds) {
		t.Fatalf("want bounds trap, got %v", err)
	}
}

func TestZeroExtendingLoads(t *testing.T) {
	build := func(b *ir.Builder) {
		v := b.Const(ir.W32, -5)
		b.StoreG(ir.W32, 0, v)
		l := b.LoadG(ir.W32, 0)
		// Print the raw register (requires extension to be correct; here we
		// print deliberately to observe the machine difference).
		b.Print(ir.W64, l)
		b.Ret(ir.NoReg)
	}
	ia, err := run(t, Options{Mode: Mode64, Machine: ir.IA64}, build)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(ia.Output) != "4294967291" {
		t.Fatalf("IA64 load must zero-extend: %q", ia.Output)
	}
	ppc, err := run(t, Options{Mode: Mode64, Machine: ir.PPC64}, build)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(ppc.Output) != "-5" {
		t.Fatalf("PPC64 load must sign-extend (lwa): %q", ppc.Output)
	}
}

func TestDivSemantics(t *testing.T) {
	r, err := run(t, Options{Mode: Mode64}, func(b *ir.Builder) {
		x := b.Const(ir.W32, math.MinInt32)
		y := b.Const(ir.W32, -1)
		q := b.Div(ir.W32, x, y)
		b.Print(ir.W32, q)
		r2 := b.Rem(ir.W32, b.Const(ir.W32, -7), b.Const(ir.W32, 2))
		b.Print(ir.W32, r2)
		b.Ret(ir.NoReg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Output != "-2147483648\n-1\n" {
		t.Fatalf("Java division semantics: %q", r.Output)
	}
	_, err = run(t, Options{Mode: Mode64}, func(b *ir.Builder) {
		q := b.Div(ir.W32, b.Const(ir.W32, 1), b.Const(ir.W32, 0))
		b.Print(ir.W32, q)
		b.Ret(ir.NoReg)
	})
	if !errors.Is(err, ErrDivZero) {
		t.Fatalf("want division trap, got %v", err)
	}
}

func TestD2IEdgeCases(t *testing.T) {
	if d2i(math.NaN()) != 0 {
		t.Error("NaN -> 0")
	}
	if d2i(1e300) != math.MaxInt32 || d2i(-1e300) != math.MinInt32 {
		t.Error("saturation")
	}
	if d2l(1e300) != math.MaxInt64 {
		t.Error("long saturation")
	}
	if d2i(-3.99) != -3 {
		t.Error("truncation toward zero")
	}
}

// Property: 32-bit shift semantics match Java (mask 31; extr-style extract
// reading only the low word).
func TestShiftProperty(t *testing.T) {
	f := func(x int32, n uint8) bool {
		prog := ir.NewProgram()
		b := ir.NewFunc("main")
		xr := b.Const(ir.W32, int64(x))
		nr := b.Const(ir.W32, int64(n))
		a := b.Shl(ir.W32, xr, nr)
		b.Ext(ir.W32, a)
		s := b.AShr(ir.W32, xr, nr)
		u := b.LShr(ir.W32, xr, nr)
		b.Ext(ir.W32, u) // lshr leaves a zero-extended register
		b.Print(ir.W32, a)
		b.Print(ir.W32, s)
		b.Print(ir.W32, u)
		b.Ret(ir.NoReg)
		prog.AddFunc(b.Fn)
		res, err := Run(prog, "main", Options{Mode: Mode64})
		if err != nil {
			return false
		}
		sh := n & 31
		want := []int64{
			int64(x << sh),
			int64(x >> sh),
			int64(int32(uint32(x) >> sh)),
		}
		lines := strings.Fields(res.Output)
		for k, w := range want {
			if lines[k] != itoa(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	var buf [24]byte
	pos := len(buf)
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		pos--
		buf[pos] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}

func TestStepLimit(t *testing.T) {
	_, err := run(t, Options{Mode: Mode64, MaxSteps: 100}, func(b *ir.Builder) {
		loop := b.NewBlock()
		b.Jmp(loop)
		b.SetBlock(loop)
		b.Jmp(loop)
	})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("want step limit, got %v", err)
	}
}

func TestProfileCollection(t *testing.T) {
	r, err := run(t, Options{Mode: Mode32, Profile: true}, func(b *ir.Builder) {
		i := b.Fn.NewReg()
		b.ConstTo(ir.W32, i, 0)
		loop, exit := b.NewBlock(), b.NewBlock()
		b.Jmp(loop)
		b.SetBlock(loop)
		b.OpTo(ir.OpAdd, ir.W32, i, i, b.Const(ir.W32, 1))
		b.Br(ir.W32, ir.CondLT, i, b.Const(ir.W32, 10), loop, exit)
		b.SetBlock(exit)
		b.Ret(ir.NoReg)
	})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, fp := range r.Profile {
		for _, c := range fp.Branches {
			total += c.Taken + c.Fall
		}
	}
	if total != 10 {
		t.Fatalf("profiled %d branch executions, want 10", total)
	}
}

func TestCallsAndRecursion(t *testing.T) {
	prog := ir.NewProgram()
	f := ir.NewFunc("fact", ir.Param{W: ir.W32})
	n := ir.Reg(0)
	base, rec := f.NewBlock(), f.NewBlock()
	f.Br(ir.W32, ir.CondLE, n, f.Const(ir.W32, 1), base, rec)
	f.SetBlock(base)
	f.Ret(f.Const(ir.W32, 1))
	f.SetBlock(rec)
	m := f.Sub(ir.W32, n, f.Const(ir.W32, 1))
	f.Ext(ir.W32, m)
	r := f.Call("fact", ir.W32, false, m)
	out := f.Mul(ir.W32, n, r)
	f.Ext(ir.W32, out)
	f.Ret(out)
	prog.AddFunc(f.Fn)

	mn := ir.NewFunc("main")
	v := mn.Call("fact", ir.W32, false, mn.Const(ir.W32, 10))
	mn.Print(ir.W32, v)
	mn.Ret(ir.NoReg)
	prog.AddFunc(mn.Fn)

	res, err := Run(prog, "main", Options{Mode: Mode64})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(res.Output) != "3628800" {
		t.Fatalf("fact(10) = %q", res.Output)
	}
}

func TestDummyAssertion(t *testing.T) {
	_, err := run(t, Options{Mode: Mode64, CheckDummies: true}, func(b *ir.Builder) {
		x := b.Const(ir.W32, math.MaxInt32)
		s := b.Add(ir.W32, x, x) // dirty
		d := b.Fn.NewInstr(ir.OpExtDummy)
		d.W = ir.W32
		d.Dst = s
		d.Srcs[0] = s
		d.NSrcs = 1
		d.Blk = b.Block()
		b.Block().Instrs = append(b.Block().Instrs, d)
		b.Ret(ir.NoReg)
	})
	if !errors.Is(err, ErrDummy) {
		t.Fatalf("want dummy violation, got %v", err)
	}
}

// TestDivRemMinIntOverflowCorner pins the idiv/irem overflow corner in both
// interpreter modes: MinInt32 / -1 must wrap to MinInt32 with correctly
// sign-extended upper bits (Java semantics, and the sibling of the lshr
// normalization bug), not trap and not keep the dirty 64-bit quotient
// +2147483648. The 64-bit adds consume the full register, so a dirty
// quotient would change the printed values. The 64-bit corner
// MinInt64 / -1 must likewise wrap rather than fault.
func TestDivRemMinIntOverflowCorner(t *testing.T) {
	build := func(b *ir.Builder) {
		x := b.Const(ir.W32, math.MinInt32)
		y := b.Const(ir.W32, -1)
		q := b.Div(ir.W32, x, y)
		rem := b.Rem(ir.W32, x, y)
		b.Print(ir.W32, q)
		b.Print(ir.W32, rem)
		// div.32/rem.32 define sign-extended results; a full-register
		// consumer exposes any dirty upper bits.
		z := b.Const(ir.W64, 0)
		b.Print(ir.W64, b.Add(ir.W64, q, z))
		b.Print(ir.W64, b.Add(ir.W64, rem, z))
		x64 := b.Const(ir.W64, math.MinInt64)
		y64 := b.Const(ir.W64, -1)
		b.Print(ir.W64, b.Div(ir.W64, x64, y64))
		b.Print(ir.W64, b.Rem(ir.W64, x64, y64))
		b.Ret(ir.NoReg)
	}
	want := "-2147483648\n0\n-2147483648\n0\n-9223372036854775808\n0\n"
	for _, mode := range []Mode{Mode32, Mode64} {
		r, err := run(t, Options{Mode: mode}, build)
		if err != nil {
			t.Fatalf("mode %v: MinInt/-1 must wrap, not trap: %v", mode, err)
		}
		if r.Output != want {
			t.Errorf("mode %v output:\n%q\nwant:\n%q", mode, r.Output, want)
		}
	}
}
