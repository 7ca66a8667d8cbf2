// Package guard is the pipeline's production guardrail subsystem: deep IR
// verification at phase boundaries, panic-safe phase execution with
// structured PhaseError reports, a differential oracle that runs optimized
// code against the unoptimized reference, and a deterministic fault
// injector that proves each guardrail actually fires.
//
// The design mirrors how JIT tiers degrade in production: a broken or
// crashing optimization must never take down compilation. It is detected,
// reported, and disabled for the offending function only; the function
// falls back to the correct Convert64-only code and compilation succeeds.
package guard

import (
	"fmt"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/ir"
)

// VerifyFunc performs the deep per-phase verification: the structural
// checks of ir.Verify, CFG edge consistency, width/type agreement on every
// extension, and, on one fresh build of the UD/DU chains, def-before-use and
// chain cross-consistency. It is the paper-pipeline analogue of an
// -d:checkir debug build, cheap enough to leave on under
// jit.Options.Checked.
func VerifyFunc(fn *ir.Func, machine ir.Machine) error {
	if err := fn.Verify(); err != nil {
		return err
	}
	if err := verifyCFG(fn); err != nil {
		return err
	}
	if err := verifyExtWidths(fn); err != nil {
		return err
	}
	ch := chains.Build(fn, cfg.Compute(fn))
	if err := verifyDefBeforeUse(fn, ch); err != nil {
		return err
	}
	if err := ch.Check(); err != nil {
		return fmt.Errorf("%s: %w", fn.Name, err)
	}
	return nil
}

// verifyCFG checks edge consistency beyond ir.Verify's symmetric-presence
// test: every successor/predecessor belongs to this function, edge
// multiplicities agree in both directions, and branch/jump targets are the
// recorded successors.
func verifyCFG(fn *ir.Func) error {
	member := map[*ir.Block]bool{}
	for _, b := range fn.Blocks {
		member[b] = true
	}
	count := func(bs []*ir.Block, x *ir.Block) int {
		n := 0
		for _, b := range bs {
			if b == x {
				n++
			}
		}
		return n
	}
	for _, b := range fn.Blocks {
		for _, s := range b.Succs {
			if !member[s] {
				return fmt.Errorf("%s/%s: successor %s not in function", fn.Name, b, s)
			}
			if count(b.Succs, s) != count(s.Preds, b) {
				return fmt.Errorf("%s: edge %s->%s multiplicity mismatch (%d succ, %d pred)",
					fn.Name, b, s, count(b.Succs, s), count(s.Preds, b))
			}
		}
		for _, p := range b.Preds {
			if !member[p] {
				return fmt.Errorf("%s/%s: predecessor %s not in function", fn.Name, b, p)
			}
			if count(p.Succs, b) != count(b.Preds, p) {
				return fmt.Errorf("%s: edge %s->%s multiplicity mismatch (%d succ, %d pred)",
					fn.Name, p, b, count(p.Succs, b), count(b.Preds, p))
			}
		}
	}
	return nil
}

// verifyExtWidths checks width and type agreement on every extension: the
// canonical operand shape, a register kind that is an integer on both
// sides, and (for the compiler-generated same-register form) agreement
// between the ext width and the kind of value the register can carry — a
// 32-bit register extended from 64 bits, or an ext.dummy of width 64, are
// phase bugs, not representable machine code.
func verifyExtWidths(fn *ir.Func) error {
	kinds := ir.Kinds(fn)
	var err error
	fn.ForEachInstr(func(b *ir.Block, ins *ir.Instr) {
		if err != nil {
			return
		}
		switch ins.Op {
		case ir.OpExt, ir.OpZext, ir.OpExtDummy:
		default:
			return
		}
		// ir.Verify already bounds W to {8,16,32}; check shape and kinds.
		if ins.NSrcs != 1 || !ins.HasDst() {
			err = fmt.Errorf("%s/%s: malformed extension %s", fn.Name, b, ins)
			return
		}
		for _, r := range []ir.Reg{ins.Dst, ins.Srcs[0]} {
			if k := kinds[r]; k == ir.KFloat || k == ir.KRef {
				err = fmt.Errorf("%s/%s: %s extends non-integer register %s", fn.Name, b, ins, r)
				return
			}
		}
		if kinds[ins.Dst] == ir.KInt32 && ins.W > ir.W32 {
			err = fmt.Errorf("%s/%s: %s wider than its 32-bit destination", fn.Name, b, ins)
		}
	})
	return err
}

// verifyDefBeforeUse checks, via the UD chains, that every integer/float
// use is fed by at least one definition (an instruction or an incoming
// parameter). A use with no reaching definition means a phase moved or
// deleted a definition it should not have — the classic symptom of a bad
// elimination order.
//
// Unreachable blocks are checked too: reaching definitions give them an
// empty IN set, so a read there of a register defined outside the block has
// no reaching definition and fails. That is stricter than it needs to be
// (the frontends and peep's br-fold leave dead blocks the interpreter never
// runs), and it makes br-fold decline whenever the dead arm reads such a
// register. Relaxing it to reachable blocks changes compiled output, so it
// waits for a change that re-pins the benchmark's exact counts.
func verifyDefBeforeUse(fn *ir.Func, ch *chains.Chains) error {
	for _, b := range fn.Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpExtDummy {
				continue // markers assert, they do not read
			}
			for k := 0; k < ins.NumUses(); k++ {
				if len(ch.UD(ins, k)) == 0 {
					return fmt.Errorf("%s/%s: %s reads %s with no reaching definition",
						fn.Name, b, ins, ins.UseAt(k))
				}
			}
		}
	}
	return nil
}

// VerifyProgram runs VerifyFunc over every function.
func VerifyProgram(p *ir.Program, machine ir.Machine) error {
	for _, fn := range p.Funcs {
		if err := VerifyFunc(fn, machine); err != nil {
			return err
		}
	}
	return nil
}
