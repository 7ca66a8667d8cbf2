package interp

import (
	"errors"
	"strings"
	"testing"

	"signext/internal/ir"
)

// TestStepLimitExactBoundary: an infinite loop trips ErrStepLimit in 32-bit
// mode too (TestStepLimit covers Mode64), and a program finishing under the
// budget must not be penalized.
func TestStepLimitExactBoundary(t *testing.T) {
	loop := ir.NewProgram()
	lb := ir.NewFunc("main")
	blk := lb.NewBlock()
	lb.Jmp(blk)
	lb.SetBlock(blk)
	lb.Jmp(blk)
	loop.AddFunc(lb.Fn)
	if _, err := Run(loop, "main", Options{Mode: Mode32, MaxSteps: 1000}); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("want ErrStepLimit, got %v", err)
	}

	prog := ir.NewProgram()
	b := ir.NewFunc("main")
	b.Print(ir.W32, b.Const(ir.W32, 7))
	b.Ret(ir.NoReg)
	prog.AddFunc(b.Fn)
	res, err := Run(prog, "main", Options{Mode: Mode32, MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "7\n" {
		t.Fatalf("wrong output %q", res.Output)
	}
}

// TestCheckDummiesViolation: an ext.dummy whose register holds dirty upper
// bits is the optimizer claiming "already extended" falsely; with
// CheckDummies the interpreter must fail the run with ErrDummy.
func TestCheckDummiesViolation(t *testing.T) {
	prog := ir.NewProgram()
	prog.NGlobals = 1
	b := ir.NewFunc("main")
	// A negative 32-bit value reloaded on IA64 zero-extends: the register is
	// dirty, so the hand-planted dummy's assertion is false.
	b.StoreG(ir.W32, 0, b.Const(ir.W32, -1))
	x := b.LoadG(ir.W32, 0)
	dummy := b.Fn.NewInstr(ir.OpExtDummy)
	dummy.W = ir.W32
	dummy.Dst = x
	dummy.Srcs[0] = x
	dummy.NSrcs = 1
	b.Block().InsertAt(len(b.Block().Instrs), dummy)
	b.Print(ir.W32, x)
	b.Ret(ir.NoReg)
	prog.AddFunc(b.Fn)

	_, err := Run(prog, "main", Options{Mode: Mode64, Machine: ir.IA64, CheckDummies: true})
	if !errors.Is(err, ErrDummy) {
		t.Fatalf("want ErrDummy, got %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "holds") {
		t.Fatalf("diagnostic lacks the dirty value: %v", err)
	}

	// Without CheckDummies the marker is a plain move and the run completes
	// (with the wrong, dirty-bit behaviour the checker exists to expose).
	if _, err := Run(prog, "main", Options{Mode: Mode64, Machine: ir.IA64}); err != nil {
		t.Fatalf("unchecked run must not trap: %v", err)
	}
}

// narrowDivProg divides 7 by a W-width divisor whose register holds div64:
// at narrow widths only the low W bits of the divisor are semantically live.
func narrowDivProg(op ir.Op, w ir.Width, div64 int64) *ir.Program {
	prog := ir.NewProgram()
	b := ir.NewFunc("main")
	x := b.Const(ir.W32, 7)
	y := b.Const(ir.W32, div64)
	var q ir.Reg
	if op == ir.OpDiv {
		q = b.Div(w, x, y)
	} else {
		q = b.Rem(w, x, y)
	}
	b.Print(ir.W32, q)
	b.Ret(ir.NoReg)
	prog.AddFunc(b.Fn)
	return prog
}

// TestDivZeroNarrowWidths: a W8/W16 divisor whose low bits are zero but whose
// upper bits are dirty (e.g. 0x100 at W8) is a semantic division by zero.
// The old guard special-cased only W32, so such divisors escaped the trap and
// divided by the dirty full-register value. Regression for the width-
// normalized divisor check, pinned on both dispatchers and both modes.
func TestDivZeroNarrowWidths(t *testing.T) {
	cases := []struct {
		name  string
		op    ir.Op
		w     ir.Width
		div   int64
		trap  bool
		print string
	}{
		{"div-w8-0x100", ir.OpDiv, ir.W8, 0x100, true, ""},
		{"rem-w8-0x100", ir.OpRem, ir.W8, 0x100, true, ""},
		{"div-w16-0x10000", ir.OpDiv, ir.W16, 0x10000, true, ""},
		{"rem-w16-0x30000", ir.OpRem, ir.W16, 0x30000, true, ""},
		{"div-w32-zero", ir.OpDiv, ir.W32, 0, true, ""},
		{"div-w64-zero", ir.OpDiv, ir.W64, 0, true, ""},
		// Low bits nonzero: not a zero divisor, however dirty the top is.
		// The quotient still uses the full dirty register (7/0x103 = 0) —
		// that wrong-value behaviour is what the soundness oracle detects.
		{"div-w8-0x103", ir.OpDiv, ir.W8, 0x103, false, "0\n"},
		{"div-w16-3", ir.OpDiv, ir.W16, 3, false, "2\n"},
	}
	for _, tc := range cases {
		for _, d := range []Dispatch{DispatchSwitch, DispatchAuto} {
			for _, mode := range []Mode{Mode32, Mode64} {
				res, err := Run(narrowDivProg(tc.op, tc.w, tc.div), "main",
					Options{Mode: mode, Dispatch: d})
				if tc.trap {
					if !errors.Is(err, ErrDivZero) {
						t.Fatalf("%s dispatch=%d mode=%d: want ErrDivZero, got %v", tc.name, d, mode, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s dispatch=%d mode=%d: unexpected trap %v", tc.name, d, mode, err)
				}
				if res.Output != tc.print {
					t.Fatalf("%s dispatch=%d mode=%d: output %q, want %q", tc.name, d, mode, res.Output, tc.print)
				}
			}
		}
	}
}

// TestCheckDummiesAcceptsCleanRegister: a truthful dummy (register freshly
// extended) must pass the assertion.
func TestCheckDummiesAcceptsCleanRegister(t *testing.T) {
	prog := ir.NewProgram()
	prog.NGlobals = 1
	b := ir.NewFunc("main")
	b.StoreG(ir.W32, 0, b.Const(ir.W32, -1))
	x := b.LoadG(ir.W32, 0)
	b.Ext(ir.W32, x)
	dummy := b.Fn.NewInstr(ir.OpExtDummy)
	dummy.W = ir.W32
	dummy.Dst = x
	dummy.Srcs[0] = x
	dummy.NSrcs = 1
	b.Block().InsertAt(len(b.Block().Instrs), dummy)
	b.Print(ir.W32, x)
	b.Ret(ir.NoReg)
	prog.AddFunc(b.Fn)

	res, err := Run(prog, "main", Options{Mode: Mode64, Machine: ir.IA64, CheckDummies: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "-1\n" {
		t.Fatalf("wrong output %q", res.Output)
	}
}
