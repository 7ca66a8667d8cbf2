package peep

import (
	"fmt"
	"strings"
	"testing"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/guard"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/vrange"
)

func runProg(t *testing.T, prog *ir.Program, mode interp.Mode, mach ir.Machine, d interp.Dispatch) string {
	t.Helper()
	res, err := interp.Run(prog, "main", interp.Options{Mode: mode, Machine: mach, Dispatch: d})
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	return res.Output
}

// TestRuleRewritesFireAndPreserveOutput is the in-package half of the
// self-generated test story: for every table row, the generated program
// parses, the rule fires on it, the rewritten function passes the deep
// verifier, and the output is bit-identical to the unrewritten build under
// both machines and both interpreter dispatchers. (The jit-pipeline half,
// including Mode32/Convert64 and the cache, lives in gentest_test.go.)
func TestRuleRewritesFireAndPreserveOutput(t *testing.T) {
	for i := range Rules {
		r := &Rules[i]
		t.Run(r.Name, func(t *testing.T) {
			src := GenProgram(r)
			prog, err := ir.ParseProgram(src)
			if err != nil {
				t.Fatalf("generated program does not parse: %v\n%s", err, src)
			}
			ref := runProg(t, prog, interp.Mode32, ir.IA64, interp.DispatchSwitch)
			base := runProg(t, prog, interp.Mode64, ir.IA64, interp.DispatchSwitch)
			if ref != base {
				t.Fatalf("generated program is mode-sensitive before any rewrite:\nMode32 %q\nMode64 %q", ref, base)
			}
			for _, mach := range []ir.Machine{ir.IA64, ir.PPC64} {
				rw := prog.Clone()
				st := Run(rw.Func("main"), Config{Machine: mach, Rules: []string{r.Name}})
				if st.ByRule[r.Name] == 0 {
					t.Fatalf("%s: rule did not fire on its own generated program (%s):\n%s",
						mach, r.Name, src)
				}
				if err := guard.VerifyFunc(rw.Func("main"), mach); err != nil {
					t.Fatalf("%s: rewritten function fails verification: %v", mach, err)
				}
				for _, d := range []interp.Dispatch{interp.DispatchSwitch, interp.DispatchAuto} {
					if got := runProg(t, rw, interp.Mode64, mach, d); got != base {
						t.Fatalf("%s dispatch %d: output diverged after %s\ngot  %q\nwant %q",
							mach, d, r.Name, got, base)
					}
				}
			}
		})
	}
}

// TestRuleFilter: a filter naming one rule must not let any other fire.
func TestRuleFilter(t *testing.T) {
	r := FindRule("or-zero")
	prog, err := ir.ParseProgram(GenProgram(r))
	if err != nil {
		t.Fatal(err)
	}
	st := Run(prog.Func("main"), Config{Machine: ir.IA64, Rules: []string{"div-pow2"}})
	if st.Rewrites != 0 {
		t.Fatalf("disabled rules fired: %+v", st.ByRule)
	}
}

func TestValidateRules(t *testing.T) {
	if err := ValidateRules([]string{"or-zero", "div-magic"}); err != nil {
		t.Fatalf("valid names rejected: %v", err)
	}
	err := ValidateRules([]string{"no-such-rule"})
	if err == nil || !strings.Contains(err.Error(), "no-such-rule") {
		t.Fatalf("want unknown-rule error, got %v", err)
	}
}

// TestBrFoldRemovesBranch: after the rewrite no conditional branch remains
// reachable — every decided compare became a jump.
func TestBrFoldRemovesBranch(t *testing.T) {
	r := FindRule("br-fold")
	prog, err := ir.ParseProgram(GenProgram(r))
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Func("main")
	before := fn.CountOp(ir.OpBr)
	if before == 0 {
		t.Fatal("generated program has no conditional branch")
	}
	st := Run(fn, Config{Machine: ir.IA64})
	if st.ByRule["br-fold"] != before {
		t.Fatalf("folded %d of %d branches: %+v", st.ByRule["br-fold"], before, st.ByRule)
	}
	if fn.CountOp(ir.OpBr) != 0 {
		t.Fatal("conditional branches remain after folding")
	}
}

// TestNoRedefinitionHazard pins the self-redefinition trap: in
// `r = shl r, a; out = shl r, b` the inner shl overwrites the register the
// pattern variable names, so shl-shl must NOT fire (the replacement would
// read the shifted value where the original read the unshifted one).
func TestNoRedefinitionHazard(t *testing.T) {
	src := `
globals 1
func main() {
	b0:
	r0 = const 3
	storeg.64 g0 r0
	r1 = loadg.64 g0
	r2 = const 5
	r4 = const 7
	r1 = shl.64 r1 r2
	r3 = shl.64 r1 r4
	print.64 r3
	ret
}
`
	prog, err := ir.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	base := runProg(t, prog, interp.Mode64, ir.IA64, interp.DispatchSwitch)
	rw := prog.Clone()
	st := Run(rw.Func("main"), Config{Machine: ir.IA64, Rules: []string{"shl-shl"}})
	if st.Rewrites != 0 {
		t.Fatalf("shl-shl fired across a redefinition: %+v", st.ByRule)
	}
	if got := runProg(t, rw, interp.Mode64, ir.IA64, interp.DispatchSwitch); got != base {
		t.Fatalf("output changed: got %q want %q", got, base)
	}
}

// matchesAnywhere reports whether rule matches some instruction of fn.
func matchesAnywhere(rule *Rule, fn *ir.Func) bool {
	info := cfg.Compute(fn)
	ch := chains.Build(fn, info)
	an := vrange.Compute(fn, ch, info, ir.IA64, 0)
	for _, b := range fn.Blocks {
		for _, ins := range b.Instrs {
			if matchRule(newMatch(fn, ir.IA64, an, ch), rule, ins, map[*ir.Instr]bool{}) {
				return true
			}
		}
	}
	return false
}

// TestSharedConstMismatch: a constant name bound at two operands of one
// pattern must hold the same value at both. No table rule repeats a name, so
// a test-local rule, (x << k) >>u k, pins the binding.
func TestSharedConstMismatch(t *testing.T) {
	rule := &Rule{
		Name:    "shift-round-trip",
		Pattern: Pat{Op: ir.OpLShr, Args: []PatArg{psub(ir.OpShl, pv("x"), pc("k")), pc("k")}},
		Widths:  anyWidth(),
	}
	for _, outer := range []int64{24, 16} {
		prog, err := ir.ParseProgram(fmt.Sprintf(`
globals 1
func main() {
	b0:
	r0 = const -1
	storeg.64 g0 r0
	r1 = loadg.64 g0
	r2 = const 24
	r3 = const %d
	r4 = shl.64 r1 r2
	r5 = lshr.64 r4 r3
	print.64 r5
	ret
}
`, outer))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := matchesAnywhere(rule, prog.Func("main")), outer == 24; got != want {
			t.Errorf("shifts by 24 then %d: matched %v, want %v", outer, got, want)
		}
	}
}

// TestDivNegativeRangeBlocked: without the non-negativity fact the division
// rules must not fire — signed division of a negative dividend disagrees
// with both the logical shift and the magic multiply.
func TestDivNegativeRangeBlocked(t *testing.T) {
	src := `
globals 1
func main() {
	b0:
	r0 = const -64
	storeg.64 g0 r0
	r1 = loadg.64 g0
	r2 = const 16
	r3 = div.32 r1 r2
	print.32 r3
	r4 = const 7
	r5 = div.32 r1 r4
	print.32 r5
	ret
}
`
	prog, err := ir.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	st := Run(prog.Func("main"), Config{Machine: ir.IA64})
	if st.ByRule["div-pow2"] != 0 || st.ByRule["div-magic"] != 0 {
		t.Fatalf("division rules fired on an unbounded dividend: %+v", st.ByRule)
	}
}

// TestCommutedMatch: the commuted operand order (2^k * x) must rewrite too.
func TestCommutedMatch(t *testing.T) {
	src := `
globals 1
func main() {
	b0:
	r0 = const 37
	storeg.64 g0 r0
	r1 = loadg.64 g0
	r2 = const 8
	r3 = mul.32 r2 r1
	print.32 r3
	ret
}
`
	prog, err := ir.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	base := runProg(t, prog, interp.Mode64, ir.IA64, interp.DispatchSwitch)
	rw := prog.Clone()
	st := Run(rw.Func("main"), Config{Machine: ir.IA64, Rules: []string{"mul-pow2"}})
	if st.ByRule["mul-pow2"] != 1 {
		t.Fatalf("commuted mul-pow2 did not fire: %+v", st.ByRule)
	}
	if got := runProg(t, rw, interp.Mode64, ir.IA64, interp.DispatchSwitch); got != base {
		t.Fatalf("output changed: got %q want %q", got, base)
	}
}

// TestDeadPatternCleanup: each matched inner shl loses its only use and must
// be gone after Run's between-round cleanup, leaving one shl per rewrite.
func TestDeadPatternCleanup(t *testing.T) {
	r := FindRule("shl-shl")
	prog, err := ir.ParseProgram(GenProgram(r))
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Func("main")
	before := fn.CountOp(ir.OpShl)
	st := Run(fn, Config{Machine: ir.IA64, Rules: []string{"shl-shl"}})
	if st.Rewrites == 0 {
		t.Fatal("shl-shl did not fire")
	}
	if st.Removed == 0 {
		t.Fatal("dead inner shifts were not cleaned up")
	}
	if n := fn.CountOp(ir.OpShl); n != before-st.Rewrites {
		t.Fatalf("%d shl instructions remain, want %d", n, before-st.Rewrites)
	}
}
