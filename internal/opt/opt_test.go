package opt

import (
	"testing"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/extelim"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/minijava"
)

func TestConstFold(t *testing.T) {
	b := ir.NewFunc("f")
	x := b.Const(ir.W32, 6)
	y := b.Const(ir.W32, 7)
	p := b.Mul(ir.W32, x, y)
	q := b.Add(ir.W32, p, b.Const(ir.W32, 100))
	e := b.Fn.NewInstr(ir.OpExt)
	e.W = ir.W32
	e.Dst = q
	e.Srcs[0] = q
	e.NSrcs = 1
	b.Block().Instrs = append(b.Block().Instrs, e)
	e.Blk = b.Block()
	b.Print(ir.W32, q)
	b.Ret(ir.NoReg)

	st := Run(b.Fn)
	if st.Folded < 2 {
		t.Fatalf("folded %d instructions, want >= 2 (mul, add, ext)", st.Folded)
	}
	res, err := interp.Run(progOf(b.Fn), "f", interp.Options{Mode: interp.Mode64})
	if err != nil || res.Output != "142\n" {
		t.Fatalf("folded program wrong: %q, %v", res.Output, err)
	}
	if res.Ext32() != 0 {
		t.Fatal("constant folding should have removed the extension")
	}
}

func TestConstFoldWrapsAt32Bits(t *testing.T) {
	b := ir.NewFunc("f")
	x := b.Const(ir.W32, 2147483647)
	y := b.Const(ir.W32, 1)
	s := b.Add(ir.W32, x, y)
	b.Print(ir.W32, s)
	b.Ret(ir.NoReg)
	Run(b.Fn)
	res, err := interp.Run(progOf(b.Fn), "f", interp.Options{Mode: interp.Mode64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "-2147483648\n" {
		t.Fatalf("folding must materialize the wrapped, extended constant: %q", res.Output)
	}
}

func TestDCE(t *testing.T) {
	b := ir.NewFunc("f")
	dead := b.Add(ir.W32, b.Const(ir.W32, 1), b.Const(ir.W32, 2))
	_ = dead
	live := b.Const(ir.W32, 5)
	b.Print(ir.W32, live)
	b.Ret(ir.NoReg)
	st := Run(b.Fn)
	if st.Dead == 0 {
		t.Fatal("dead add not removed")
	}
	n := 0
	b.Fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) { n++ })
	if n != 3 { // const 5, print, ret
		t.Fatalf("%d instructions remain, want 3", n)
	}
}

func TestLICMHoistsInvariantExt(t *testing.T) {
	// d = ext.32 s with s defined before the loop: hoistable (the paper's
	// PRE effect on loop-invariant extensions).
	b := ir.NewFunc("f", ir.Param{W: ir.W32})
	s := b.Add(ir.W32, ir.Reg(0), ir.Reg(0))
	i := b.Fn.NewReg()
	b.ConstTo(ir.W32, i, 0)
	loop, exit := b.NewBlock(), b.NewBlock()
	b.Jmp(loop)
	b.SetBlock(loop)
	w := b.Fn.NewReg()
	ext := b.ExtTo(ir.W32, w, s) // invariant
	_ = ext
	b.OpTo(ir.OpAdd, ir.W32, i, i, w)
	b.Ext(ir.W32, i)
	b.Br(ir.W32, ir.CondLT, i, ir.Reg(0), loop, exit)
	b.SetBlock(exit)
	b.Print(ir.W32, i)
	b.Ret(ir.NoReg)

	st := Run(b.Fn)
	if st.Hoisted == 0 {
		t.Fatalf("invariant extension not hoisted: %+v\n%s", st, b.Fn.Format())
	}
	inLoop := 0
	for _, ins := range b.Fn.Blocks[1].Instrs {
		if ins.IsExt() && ins.Dst == w {
			inLoop++
		}
	}
	if inLoop != 0 {
		t.Fatalf("extension still in loop:\n%s", b.Fn.Format())
	}
}

func TestLICMRespectsLiveness(t *testing.T) {
	// x is live into the loop header (used before redefined): hoisting its
	// in-loop definition would clobber the first iteration's value.
	b := ir.NewFunc("f", ir.Param{W: ir.W32})
	x := b.Fn.NewReg()
	acc := b.Fn.NewReg()
	b.ConstTo(ir.W32, x, 42)
	b.ConstTo(ir.W32, acc, 0)
	loop, exit := b.NewBlock(), b.NewBlock()
	b.Jmp(loop)
	b.SetBlock(loop)
	b.OpTo(ir.OpAdd, ir.W32, acc, acc, x) // reads x before its in-loop def
	b.ConstTo(ir.W32, x, 7)               // pure, "invariant", but must stay
	b.Br(ir.W32, ir.CondLT, acc, ir.Reg(0), loop, exit)
	b.SetBlock(exit)
	b.Print(ir.W32, acc)
	b.Ret(ir.NoReg)

	before := refOutput(t, b.Fn)
	Run(b.Fn)
	after := refOutput(t, b.Fn)
	if before != after {
		t.Fatalf("LICM changed behaviour: %q -> %q", before, after)
	}
}

func TestLocalCSE(t *testing.T) {
	b := ir.NewFunc("f", ir.Param{W: ir.W32})
	x := ir.Reg(0)
	a1 := b.Add(ir.W32, x, x)
	a2 := b.Add(ir.W32, x, x) // same expression
	s := b.Add(ir.W32, a1, a2)
	b.Ext(ir.W32, s)
	b.Print(ir.W32, s)
	b.Ret(ir.NoReg)
	st := Run(b.Fn)
	if st.CSE == 0 {
		t.Fatalf("duplicate add not CSEd: %+v", st)
	}
}

// TestLocalCSEOverwrittenHolder pins when an expression stops being
// available: when one of its own registers is redefined, and only then.
// Overwriting an earlier holder of the expression does not end a later one.
func TestLocalCSEOverwrittenHolder(t *testing.T) {
	b := ir.NewFunc("f", ir.Param{W: ir.W32}, ir.Param{W: ir.W32})
	x, y := ir.Reg(0), ir.Reg(1)
	r1 := b.Add(ir.W32, x, y)
	b.ConstTo(ir.W32, x, 5)   // ends r1's x+y
	r2 := b.Add(ir.W32, x, y) // the new x+y, held in r2
	b.ConstTo(ir.W32, r1, 7)  // overwrites the old holder only
	b.Add(ir.W32, x, y)       // a copy of r2
	b.Ret(ir.NoReg)
	ch := chains.Build(b.Fn, cfg.Compute(b.Fn))
	if n := localCSE(b.Fn, ch); n != 1 {
		t.Fatalf("localCSE replaced %d instructions, want 1:\n%s", n, b.Fn.Format())
	}
	last := b.Fn.Entry().Instrs[4]
	if last.Op != ir.OpMov || last.Srcs[0] != r2 {
		t.Fatalf("third x+y is %s, want a copy of %s", last, r2)
	}
	if err := chains.Diff(ch, chains.Build(b.Fn, cfg.Compute(b.Fn))); err != nil {
		t.Fatal(err)
	}
}

func TestCopyPropPreservesExtSources(t *testing.T) {
	// r3 = mov r2; r3 = ext.32 r3 — the ext's source must stay r3 so the
	// elimination phase sees the canonical same-register form.
	b := ir.NewFunc("f", ir.Param{W: ir.W32})
	r2 := b.Add(ir.W32, ir.Reg(0), ir.Reg(0))
	r3 := b.Mov(ir.W32, r2)
	ext := b.Ext(ir.W32, r3)
	b.Print(ir.W32, r3)
	b.Ret(ir.NoReg)
	Run(b.Fn)
	if ext.Srcs[0] != ext.Dst {
		t.Fatalf("copy propagation broke the same-register extension: %s", ext)
	}
}

// TestLICMDeterministic pins that two optimizations of the same input print
// identical IR. licm used to iterate loop-block sets in map-range order, so
// invariant instructions from different blocks of one loop were hoisted into
// the preheader in an order that varied between runs — which broke the
// bit-identical guarantee the parallel compile driver relies on.
func TestLICMDeterministic(t *testing.T) {
	// A loop whose body spans several blocks, each defining hoistable
	// invariant constants, so hoist order is observable in the preheader.
	src := `void main() {
		int s = 0;
		for (int i = 0; i < 40; i++) {
			if (i % 2 == 0) { s += 1001; } else { s -= 2002; }
			if (i % 3 == 0) { s += 3003; } else { s -= 4004; }
			s += 5005;
		}
		print(s);
	}`
	var want string
	for trial := 0; trial < 10; trial++ {
		cu, err := minijava.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		var got string
		for _, fn := range cu.Prog.Funcs {
			st := Run(fn)
			if trial == 0 && fn.Name == "main" && st.Hoisted == 0 {
				t.Fatalf("expected licm to hoist something: %+v", st)
			}
			got += fn.Format()
		}
		if trial == 0 {
			want = got
		} else if got != want {
			t.Fatalf("optimization of identical input diverged on trial %d:\n--- first ---\n%s\n--- now ---\n%s", trial, want, got)
		}
	}
}

// TestGeneralOptsPreserveSemantics runs the optimizer over every MiniJava
// snippet and compares reference outputs before and after — on both the
// 32-bit form and the converted 64-bit form.
func TestGeneralOptsPreserveSemantics(t *testing.T) {
	srcs := []string{
		`void main() {
			int a = 3 * 9 + 1;
			int b = a << 2;
			print(a + b);
			print(7 / 2); print(-7 / 2); print(-7 % 3);
		}`,
		`void main() {
			int s = 0;
			int inv = 12345 * 3;
			for (int i = 0; i < 50; i++) { s += inv + i; }
			print(s);
		}`,
		`static long g = 5;
		void main() {
			long t = g;
			for (int i = 0; i < 10; i++) { t = t * 3 - 1; }
			print(t);
			double d = t;
			print(d / 7.0);
		}`,
	}
	for si, src := range srcs {
		for _, convert := range []bool{false, true} {
			cu, err := minijava.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			mode := interp.Mode32
			if convert {
				for _, fn := range cu.Prog.Funcs {
					extelim.Convert64(fn, ir.IA64)
				}
				mode = interp.Mode64
			}
			before, err := interp.Run(cu.Prog, "main", interp.Options{Mode: mode, Machine: ir.IA64})
			if err != nil {
				t.Fatalf("src %d: %v", si, err)
			}
			for _, fn := range cu.Prog.Funcs {
				Run(fn)
				if err := fn.Verify(); err != nil {
					t.Fatalf("src %d: %v", si, err)
				}
			}
			after, err := interp.Run(cu.Prog, "main", interp.Options{Mode: mode, Machine: ir.IA64})
			if err != nil {
				t.Fatalf("src %d post-opt: %v", si, err)
			}
			if before.Output != after.Output {
				t.Fatalf("src %d (convert=%v): optimizer changed behaviour\nbefore %q\nafter  %q",
					si, convert, before.Output, after.Output)
			}
		}
	}
}

func progOf(fn *ir.Func) *ir.Program {
	p := ir.NewProgram()
	p.AddFunc(fn)
	return p
}

func refOutput(t *testing.T, fn *ir.Func) string {
	t.Helper()
	res, err := interp.Run(progOf(fn.Clone()), fn.Name, interp.Options{Mode: interp.Mode32})
	if err != nil {
		t.Fatal(err)
	}
	return res.Output
}
