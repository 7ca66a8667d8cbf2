package jit

import (
	"errors"
	"strings"
	"testing"

	"signext/internal/guard"
	"signext/internal/interp"
	"signext/internal/ir"
)

// TestForcedPhasePanicFallsBack is the acceptance scenario of the guardrail
// work: a sign-extension phase that panics must not abort compilation — the
// function falls back to its Convert64-only code and the compiled program
// still matches the 32-bit reference exactly.
func TestForcedPhasePanicFallsBack(t *testing.T) {
	cu := compileSrc(t)
	ref, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
	if err != nil {
		t.Fatal(err)
	}

	baseline, err := Compile(cu.Prog, Options{Variant: Baseline, GeneralOpts: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Execute(baseline, "main")
	if err != nil {
		t.Fatal(err)
	}

	res, err := Compile(cu.Prog, Options{
		Variant: All, GeneralOpts: true, Checked: true,
		PhaseHook: func(phase string, fn *ir.Func) {
			if phase == "signext" {
				panic("injected phase failure")
			}
		},
	})
	if err != nil {
		t.Fatalf("panic escaped the guarded pipeline: %v", err)
	}
	if len(res.Fallbacks) == 0 {
		t.Fatal("panicking phase not recorded as a fallback")
	}
	for _, fb := range res.Fallbacks {
		if fb.Phase != "signext" || fb.Panic == nil {
			t.Fatalf("unexpected fallback record: %+v", fb)
		}
		if fb.Snapshot == "" {
			t.Fatal("fallback carries no IR snapshot")
		}
	}
	if res.Stats.Eliminated != 0 {
		t.Fatalf("phase disabled yet claims %d eliminations", res.Stats.Eliminated)
	}

	out, err := Execute(res, "main")
	if err != nil {
		t.Fatal(err)
	}
	if out.Output != ref.Output {
		t.Fatalf("fallback code diverges from reference:\nref %q\ngot %q", ref.Output, out.Output)
	}
	// Convert64-only code executes exactly the baseline's extension count:
	// nothing was eliminated.
	if out.Ext32() != base.Ext32() {
		t.Fatalf("fallback is not Convert64-only: %d dynamic extensions, baseline %d",
			out.Ext32(), base.Ext32())
	}
}

// TestConversionFailureIsFatal: conversion is the correctness floor, so a
// failing conversion phase aborts the compile with a structured phase error
// instead of falling back.
func TestConversionFailureIsFatal(t *testing.T) {
	cu := compileSrc(t)
	for _, c := range []struct {
		v     Variant
		phase string
	}{{All, PhaseConvert}, {GenUse, PhaseGenUse}} {
		res, err := Compile(cu.Prog, Options{
			Variant: c.v, GeneralOpts: true,
			PhaseHook: func(phase string, fn *ir.Func) {
				if phase == c.phase {
					panic("injected conversion failure")
				}
			},
		})
		var perr *guard.PhaseError
		if !errors.As(err, &perr) || perr.Phase != c.phase || perr.Panic == nil {
			t.Fatalf("%v: want a %s phase error, got result %v, error %v", c.v, c.phase, res, err)
		}
	}
}

// TestCheckedVerifierFallsBack: a phase that terminates normally but leaves
// corrupt IR behind is caught by the deep verifier under Checked, and the
// function reverts to its pre-phase snapshot.
func TestCheckedVerifierFallsBack(t *testing.T) {
	cu := compileSrc(t)
	ref, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(cu.Prog, Options{
		Variant: All, GeneralOpts: true, Checked: true,
		PhaseHook: func(phase string, fn *ir.Func) {
			// Sabotage the CFG the phase is about to work on: elimination
			// never repairs predecessor lists, so the damage survives the
			// phase body and only the boundary verifier can reject it.
			if phase == "signext" && fn.Name == "main" {
				guard.NewInjector(11).DropEdge(fn)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, fb := range res.Fallbacks {
		if fb.Func == "main" && fb.Err != nil && strings.Contains(fb.Err.Error(), "edge") {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("verifier rejection not recorded: %v", res.Fallbacks)
	}
	out, err := Execute(res, "main")
	if err != nil {
		t.Fatal(err)
	}
	if out.Output != ref.Output {
		t.Fatal("restored snapshot diverges from reference")
	}
}

// TestCheckedCleanPipeline: on healthy input the fully guarded pipeline
// reports no fallbacks for any variant and matches the reference.
func TestCheckedCleanPipeline(t *testing.T) {
	cu := compileSrc(t)
	ref, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Variants {
		for _, m := range []ir.Machine{ir.IA64, ir.PPC64} {
			res, err := Compile(cu.Prog, Options{Variant: v, Machine: m, GeneralOpts: true, Checked: true})
			if err != nil {
				t.Fatalf("%v/%v: %v", v, m, err)
			}
			if len(res.Fallbacks) != 0 {
				t.Fatalf("%v/%v: spurious fallbacks: %v", v, m, res.Fallbacks)
			}
			out, err := Execute(res, "main")
			if err != nil {
				t.Fatalf("%v/%v: %v", v, m, err)
			}
			if out.Output != ref.Output {
				t.Fatalf("%v/%v: wrong output", v, m)
			}
		}
	}
}

// TestElimBudgetFallsBack: a starvation-level work budget disables the
// elimination phase per function instead of producing half-analyzed code,
// and the result still runs correctly.
func TestElimBudgetFallsBack(t *testing.T) {
	cu := compileSrc(t)
	ref, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(cu.Prog, Options{Variant: All, GeneralOpts: true, Checked: true, ElimBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fallbacks) == 0 {
		t.Fatal("budget exhaustion not recorded")
	}
	for _, fb := range res.Fallbacks {
		if fb.Err == nil || !strings.Contains(fb.Err.Error(), "budget") {
			t.Fatalf("unexpected fallback: %v", fb)
		}
	}
	// The discarded elimination's counters appear neither in Result.Stats
	// nor in its signext record.
	var elim, ins, dums int
	for _, r := range res.Telemetry {
		if r.Phase != PhaseSignExt {
			continue
		}
		if r.Fallback && r.Eliminated+r.Inserted+r.Dummies != 0 {
			t.Fatalf("fallback record carries discarded counters: %+v", r)
		}
		elim, ins, dums = elim+r.Eliminated, ins+r.Inserted, dums+r.Dummies
	}
	if elim != res.Stats.Eliminated || ins != res.Stats.Inserted || dums != res.Stats.Dummies {
		t.Fatalf("signext records sum to eliminated=%d inserted=%d dummies=%d, Stats has %d, %d, %d",
			elim, ins, dums, res.Stats.Eliminated, res.Stats.Inserted, res.Stats.Dummies)
	}
	out, err := Execute(res, "main")
	if err != nil {
		t.Fatal(err)
	}
	if out.Output != ref.Output {
		t.Fatal("budget fallback diverges from reference")
	}

	// An ample budget must not trip.
	res, err = Compile(cu.Prog, Options{Variant: All, GeneralOpts: true, Checked: true, ElimBudget: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fallbacks) != 0 {
		t.Fatalf("ample budget tripped: %v", res.Fallbacks)
	}
	if res.Stats.Eliminated == 0 {
		t.Fatal("nothing eliminated under an ample budget")
	}
}

// TestOracleCheckOnPipeline: the differential oracle accepts every variant's
// output on the healthy pipeline.
func TestOracleCheckOnPipeline(t *testing.T) {
	cu := compileSrc(t)
	for _, v := range []Variant{Baseline, BasicUDDU, All} {
		res, err := Compile(cu.Prog, Options{Variant: v, GeneralOpts: true, Checked: true})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		rep, err := OracleCheck(cu.Prog, res, "main")
		if err != nil {
			t.Fatalf("%v: oracle rejected the pipeline: %v", v, err)
		}
		if rep.OptExts > rep.RefExts {
			t.Fatalf("%v: report inconsistent: opt %d > ref %d", v, rep.OptExts, rep.RefExts)
		}
	}
}

// TestCheckedInliningVerifyRecord: under Checked, verifying the inlined
// program is timed as its own program-scope verify record, not as inlining;
// without Checked no such record exists. A failed inlining phase still
// restores the un-inlined program.
func TestCheckedInliningVerifyRecord(t *testing.T) {
	cu := compileSrc(t)
	count := func(res *Result, phase string) (n int, fallback bool) {
		for _, r := range res.Telemetry {
			if r.Func == ProgramScope && r.Phase == phase {
				n++
				fallback = fallback || r.Fallback
			}
		}
		return n, fallback
	}
	failInlining := func(phase string, _ *ir.Func) {
		if phase == PhaseInlining {
			panic("injected inlining failure")
		}
	}
	cases := []struct {
		name       string
		checked    bool
		hook       func(string, *ir.Func)
		wantVerify int
	}{
		{"unchecked", false, nil, 0},
		{"checked", true, nil, 1},
		{"checked, inlining fails", true, failInlining, 0},
	}
	for _, tc := range cases {
		res, err := Compile(cu.Prog, Options{
			Variant: All, GeneralOpts: true, Checked: tc.checked, PhaseHook: tc.hook,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fails := tc.hook != nil
		if n, fb := count(res, PhaseInlining); n != 1 || fb != fails {
			t.Fatalf("%s: %d inlining records (fallback %v), want 1 (fallback %v)", tc.name, n, fb, fails)
		}
		if n, _ := count(res, PhaseVerify); n != tc.wantVerify {
			t.Fatalf("%s: %d program-scope verify records, want %d", tc.name, n, tc.wantVerify)
		}
		calls := res.Prog.Func("main").CountOp(ir.OpCall)
		if inlined := calls == 0; inlined == fails {
			t.Fatalf("%s: main has %d calls after compile; inlining fallback %v", tc.name, calls, fails)
		}
	}
}
