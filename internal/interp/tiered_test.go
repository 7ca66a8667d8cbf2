package interp

import (
	"math"
	"strings"
	"testing"

	"signext/internal/ir"
)

// twoTierProg builds a caller/callee pair where the callee's narrow result
// is observable: main prints callee's W32 return value after an overflow.
// The callee exists in two forms sharing a program: "wrapped" normalizes
// its narrow defs explicitly (a compiled 64-bit form with its extension
// kept), "raw" relies on the executing mode to normalize (32-bit form).
func twoTierProg() *ir.Program {
	prog := ir.NewProgram()

	wrapped := ir.NewFunc("wrapped")
	{
		x := wrapped.Const(ir.W32, math.MaxInt32)
		y := wrapped.Const(ir.W32, 1)
		s := wrapped.Add(ir.W32, x, y)
		wrapped.Ext(ir.W32, s) // the extension a compiled form carries at the return
		wrapped.Ret(s)
	}
	wrapped.Fn.RetW = ir.W32
	prog.AddFunc(wrapped.Fn)

	raw := ir.NewFunc("raw")
	{
		x := raw.Const(ir.W32, math.MaxInt32)
		y := raw.Const(ir.W32, 1)
		s := raw.Add(ir.W32, x, y)
		raw.Ret(s)
	}
	raw.Fn.RetW = ir.W32
	prog.AddFunc(raw.Fn)

	main := ir.NewFunc("main")
	{
		a := main.Call("wrapped", ir.W32, false)
		main.Print(ir.W32, a)
		b := main.Call("raw", ir.W32, false)
		main.Print(ir.W32, b)
		main.Ret(ir.NoReg)
	}
	prog.AddFunc(main.Fn)
	return prog
}

// TestFuncModeMixedTiers pins the mixed-tier contract: per-function modes
// resolve independently per frame, and a Mode32 frame normalizes narrow defs
// even when its caller runs Mode64 (and vice versa).
func TestFuncModeMixedTiers(t *testing.T) {
	prog := twoTierProg()

	// wrapped runs as compiled code (Mode64, extension does the repair);
	// raw stays in the interpreter tier (Mode32 normalization).
	modes := map[string]Mode{"main": Mode64, "wrapped": Mode64, "raw": Mode32}
	r, err := Run(prog, "main", Options{
		Mode:     Mode64,
		FuncMode: func(name string) Mode { return modes[name] },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "-2147483648\n-2147483648\n"
	if r.Output != want {
		t.Fatalf("mixed-tier output %q, want %q", r.Output, want)
	}

	// Control: running raw under Mode64 (as if promoted without compilation)
	// exposes the dirty register — proving FuncMode really switched modes.
	r, err = Run(prog, "main", Options{
		Mode:     Mode64,
		FuncMode: func(name string) Mode { return Mode64 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Output, "2147483648\n") || strings.Count(r.Output, "-2147483648") != 1 {
		t.Fatalf("all-Mode64 run should expose raw's dirty register: %q", r.Output)
	}
}

// TestFuncModeRestoredAfterReturn: after a callee with a different mode
// returns, the caller's own narrow defs normalize under the caller's mode.
func TestFuncModeRestoredAfterReturn(t *testing.T) {
	prog := ir.NewProgram()

	callee := ir.NewFunc("callee")
	callee.Ret(ir.NoReg)
	prog.AddFunc(callee.Fn)

	main := ir.NewFunc("main")
	{
		main.Call("callee", 0, false)
		x := main.Const(ir.W32, math.MaxInt32)
		y := main.Const(ir.W32, 1)
		s := main.Add(ir.W32, x, y) // after the call: must use main's Mode32
		main.Print(ir.W32, s)
		main.Ret(ir.NoReg)
	}
	prog.AddFunc(main.Fn)

	modes := map[string]Mode{"main": Mode32, "callee": Mode64}
	r, err := Run(prog, "main", Options{
		Mode:     Mode64, // base mode differs from main's on purpose
		FuncMode: func(name string) Mode { return modes[name] },
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(r.Output) != "-2147483648" {
		t.Fatalf("caller mode not restored after callee returned: %q", r.Output)
	}
}

// TestCountCalls: the profile's entry counts cover every frame, including
// repeated calls, and there is no profile when none was requested.
func TestCountCalls(t *testing.T) {
	prog := ir.NewProgram()

	callee := ir.NewFunc("callee")
	callee.Ret(ir.NoReg)
	prog.AddFunc(callee.Fn)

	main := ir.NewFunc("main")
	{
		main.Call("callee", 0, false)
		main.Call("callee", 0, false)
		main.Call("callee", 0, false)
		main.Ret(ir.NoReg)
	}
	prog.AddFunc(main.Fn)

	for _, d := range []Dispatch{DispatchAuto, DispatchSwitch} {
		r, err := Run(prog, "main", Options{Mode: Mode32, Profile: true, Dispatch: d})
		if err != nil {
			t.Fatal(err)
		}
		if r.Profile["main"].Calls != 1 || r.Profile["callee"].Calls != 3 {
			t.Fatalf("dispatch %d: Calls = main:%d callee:%d, want main:1 callee:3",
				d, r.Profile["main"].Calls, r.Profile["callee"].Calls)
		}
	}

	r, err := Run(prog, "main", Options{Mode: Mode32})
	if err != nil {
		t.Fatal(err)
	}
	if r.Profile != nil {
		t.Fatalf("profile recorded without Options.Profile: %s", r.Profile.Marshal())
	}
}
