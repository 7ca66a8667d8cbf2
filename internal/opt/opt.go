// Package opt implements the "general optimizations" of the paper's Figure 5
// step (2), which run between the 64-bit conversion and the sign extension
// phase and themselves optimize sign extensions: constant folding turns an
// extension of a constant into a constant, local CSE merges repeated
// extensions, dead-code elimination drops unused ones, and the
// partial-redundancy-elimination variant (realized as dominator-safe
// loop-invariant code motion) moves loop-invariant extensions out of loops.
package opt

import (
	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/dataflow"
	"signext/internal/ir"
)

// Stats reports what the optimizer did.
type Stats struct {
	Folded   int // instructions replaced by constants
	Copies   int // uses rewritten by local copy propagation
	CSE      int // instructions replaced by copies of earlier results
	Dead     int // instructions removed as dead
	Hoisted  int // loop-invariant instructions moved to preheaders
	BrFolded int // statically decided branches simplified
}

// Run applies the full general-optimization pipeline to fn until it stops
// changing (bounded number of rounds).
func Run(fn *ir.Func) Stats {
	var total Stats
	for round := 0; round < 4; round++ {
		var st Stats
		st.Folded = constFold(fn)
		st.Copies = localCopyProp(fn)
		st.CSE = localCSE(fn)
		st.Hoisted = licm(fn)
		st.Dead = dce(fn)
		total.Folded += st.Folded
		total.Copies += st.Copies
		total.CSE += st.CSE
		total.Dead += st.Dead
		total.Hoisted += st.Hoisted
		if st == (Stats{}) {
			break
		}
	}
	return total
}

// constFold evaluates pure instructions whose operands are all known
// constants, using global reaching definitions so constants propagate across
// blocks. Results of W-bit ops are materialized as properly extended
// constants, which is what a real code generator emits and is always at
// least as defined as the original dirty register.
func constFold(fn *ir.Func) int {
	info := cfg.Compute(fn)
	ch := chains.Build(fn, info)
	constOf := func(ins *ir.Instr, op int) (int64, bool) {
		defs := ch.UD(ins, op)
		if len(defs) == 0 {
			return 0, false
		}
		var v int64
		for k, d := range defs {
			if d.IsParam() || d.Instr.Op != ir.OpConst {
				return 0, false
			}
			if k == 0 {
				v = d.Instr.Const
			} else if d.Instr.Const != v {
				return 0, false
			}
		}
		return v, true
	}
	n := 0
	fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
		if !ins.Pure() || !ins.HasDst() || ins.Op == ir.OpConst {
			return
		}
		v, ok := foldValue(ins, constOf)
		if !ok {
			return
		}
		ins.Op = ir.OpConst
		ins.Const = v
		ins.NSrcs = 0
		ins.Args = nil
		n++
	})
	return n
}

func foldValue(ins *ir.Instr, constOf func(*ir.Instr, int) (int64, bool)) (int64, bool) {
	get := func(k int) (int64, bool) { return constOf(ins, k) }
	w := ins.W
	norm := func(v int64) int64 {
		if w != ir.W64 {
			return w.SignExt(v)
		}
		return v
	}
	switch ins.Op {
	case ir.OpMov:
		if x, ok := get(0); ok {
			return x, true
		}
	case ir.OpExt:
		if x, ok := get(0); ok {
			return ins.W.SignExt(x), true
		}
	case ir.OpZext:
		if x, ok := get(0); ok {
			return ins.W.ZeroExt(x), true
		}
	case ir.OpNeg:
		if x, ok := get(0); ok {
			return norm(-x), true
		}
	case ir.OpNot:
		if x, ok := get(0); ok {
			return norm(^x), true
		}
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpAShr, ir.OpLShr:
		x, ok := get(0)
		if !ok {
			return 0, false
		}
		y, ok := get(1)
		if !ok {
			return 0, false
		}
		switch ins.Op {
		case ir.OpAdd:
			return norm(x + y), true
		case ir.OpSub:
			return norm(x - y), true
		case ir.OpMul:
			return norm(x * y), true
		case ir.OpAnd:
			return norm(x & y), true
		case ir.OpOr:
			return norm(x | y), true
		case ir.OpXor:
			return norm(x ^ y), true
		case ir.OpShl:
			return norm(x << (uint(y) & uint(w-1))), true
		case ir.OpAShr:
			if w == ir.W64 {
				return x >> (uint(y) & 63), true
			}
			return w.SignExt(x) >> (uint(y) & uint(w-1)), true
		case ir.OpLShr:
			if w == ir.W64 {
				return int64(uint64(x) >> (uint(y) & 63)), true
			}
			return int64((uint64(x) & w.Mask()) >> (uint(y) & uint(w-1))), true
		}
	}
	return 0, false
}

// localCopyProp rewrites, within each block, uses of a copied register to the
// copy source while neither register is redefined.
func localCopyProp(fn *ir.Func) int {
	n := 0
	for _, b := range fn.Blocks {
		for k, ins := range b.Instrs {
			if ins.Op != ir.OpMov || ins.Dst == ins.Srcs[0] {
				continue
			}
			r, s := ins.Dst, ins.Srcs[0]
			for j := k + 1; j < len(b.Instrs); j++ {
				x := b.Instrs[j]
				// Never rewrite the source of an extension: the canonical
				// same-register form "v = ext.W v" is what makes extensions
				// candidates for the elimination phase.
				if x.Op != ir.OpExt && x.Op != ir.OpExtDummy {
					for op := 0; op < x.NumUses(); op++ {
						if x.UseAt(op) == r {
							x.SetUseAt(op, s)
							n++
						}
					}
				}
				if x.HasDst() && (x.Dst == r || x.Dst == s) {
					break
				}
			}
		}
	}
	return n
}

// localCSE replaces, within each block, a pure recomputation of an earlier
// expression with a copy of the earlier result. Sign extensions participate:
// two identical "r = ext.32 r" in a row collapse.
func localCSE(fn *ir.Func) int {
	type exprKey struct {
		op   ir.Op
		w    ir.Width
		c    int64
		f    float64
		s0   ir.Reg
		s1   ir.Reg
		fl   bool
		cond ir.Cond
	}
	n := 0
	for _, b := range fn.Blocks {
		avail := map[exprKey]ir.Reg{} // expression -> register holding it
		deps := map[ir.Reg][]exprKey{}
		for _, ins := range b.Instrs {
			cseable := ins.Pure() && ins.HasDst() && ins.NumUses() <= 2 && len(ins.Args) == 0
			var k exprKey
			replaced := false
			if cseable {
				k = exprKey{op: ins.Op, w: ins.W, c: ins.Const, f: ins.F, fl: ins.Float, cond: ins.Cond, s0: ir.NoReg, s1: ir.NoReg}
				if ins.NSrcs > 0 {
					k.s0 = ins.Srcs[0]
				}
				if ins.NSrcs > 1 {
					k.s1 = ins.Srcs[1]
				}
				if prev, ok := avail[k]; ok && prev != ins.Dst {
					// Reuse the prior result. The width is preserved: the
					// copy's width is what register-kind inference reads, so
					// rewriting a 32-bit producer into a mov.64 would
					// silently retype the register as a long.
					op := ir.OpMov
					if ins.Op == ir.OpFConst || kindIsFloat(ins.Op) {
						op = ir.OpFMov
					}
					ins.Op = op
					ins.Srcs[0] = prev
					ins.NSrcs = 1
					ins.Const = 0
					n++
					replaced = true
				}
			}
			// The definition kills every expression mentioning dst —
			// including, for a self-overwriting op, the one this very
			// instruction would otherwise make available.
			if ins.HasDst() {
				for _, dk := range deps[ins.Dst] {
					delete(avail, dk)
				}
				delete(deps, ins.Dst)
			}
			if cseable && !replaced && ins.Dst != k.s0 && ins.Dst != k.s1 {
				if _, ok := avail[k]; !ok {
					avail[k] = ins.Dst
					deps[ins.Dst] = append(deps[ins.Dst], k)
					if k.s0 != ir.NoReg {
						deps[k.s0] = append(deps[k.s0], k)
					}
					if k.s1 != ir.NoReg {
						deps[k.s1] = append(deps[k.s1], k)
					}
				}
			}
		}
	}
	return n
}

func kindIsFloat(op ir.Op) bool {
	switch op {
	case ir.OpFConst, ir.OpFMov, ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpFNeg, ir.OpI2D, ir.OpL2D:
		return true
	}
	return false
}

// dce removes pure instructions whose results are never observed.
func dce(fn *ir.Func) int {
	info := cfg.Compute(fn)
	lv := dataflow.ComputeLiveness(fn, info)
	n := 0
	live := dataflow.NewBitSet(fn.NReg)
	for k, b := range fn.Blocks {
		// Walk backward with a live set so chains of dead code die in one
		// pass.
		lv.LiveOut(live, k)
		var dead []*ir.Instr
		for k := len(b.Instrs) - 1; k >= 0; k-- {
			ins := b.Instrs[k]
			if ins.Pure() && ins.HasDst() && !live.Has(int(ins.Dst)) {
				dead = append(dead, ins)
				continue
			}
			if ins.HasDst() {
				live.Clear(int(ins.Dst))
			}
			ins.ForEachUse(func(_ int, r ir.Reg) { live.Set(int(r)) })
		}
		for _, d := range dead {
			b.Remove(d)
			n++
		}
	}
	return n
}

// licm hoists loop-invariant pure instructions into loop preheaders — the
// effect the paper obtains from its partial redundancy elimination phase
// ("loop-invariant sign extensions can be moved out of the loop").
func licm(fn *ir.Func) int {
	info := cfg.Compute(fn)
	if !info.HasLoop() {
		return 0
	}
	ch := chains.Build(fn, info)
	lv := dataflow.ComputeLiveness(fn, info)
	n := 0
	for _, l := range info.Loops {
		pre := l.Preheader()
		if pre == nil {
			continue
		}
		var moved []*ir.Instr
		// Count in-loop definitions per register. Loop membership is a set;
		// iterate the RPO so hoisted instructions land in the preheader in a
		// deterministic order (map-range order varies between runs and would
		// make two compiles of the same input print different IR).
		defsInLoop := map[ir.Reg]int{}
		for _, b := range info.RPO {
			if !l.Blocks[b] {
				continue
			}
			for _, ins := range b.Instrs {
				if ins.HasDst() {
					defsInLoop[ins.Dst]++
				}
			}
		}
		for _, b := range info.RPO {
			if !l.Blocks[b] {
				continue
			}
			var hoist []*ir.Instr
			for _, ins := range b.Instrs {
				if !ins.Pure() || !ins.HasDst() || len(ins.Args) > 0 {
					continue
				}
				if defsInLoop[ins.Dst] != 1 {
					continue
				}
				// The destination must not be live around the back edge
				// before this definition (no prior value observed).
				if lv.LiveIn(l.Header, ins.Dst) {
					continue
				}
				invariant := true
				for op := 0; op < ins.NumUses(); op++ {
					for _, d := range ch.UD(ins, op) {
						if !d.IsParam() && l.Blocks[d.Instr.Blk] {
							invariant = false
						}
					}
					if len(ch.UD(ins, op)) == 0 {
						invariant = false
					}
				}
				if ins.NumUses() == 0 && ins.Op != ir.OpConst && ins.Op != ir.OpFConst {
					invariant = false
				}
				if invariant {
					hoist = append(hoist, ins)
				}
			}
			for _, ins := range hoist {
				b.Remove(ins)
				term := pre.Instrs[len(pre.Instrs)-1]
				pre.InsertBefore(term, ins)
				n++
			}
			moved = append(moved, hoist...)
		}
		if len(moved) > 0 {
			// Hoisting makes the destinations live into the header; refresh
			// liveness for the next loop. The chains stay current: the
			// hoisted instruction is the loop's only definition of a
			// register not live into the header, and its operands are
			// defined only outside the loop, so the same definitions reach
			// its operands at the end of the preheader and the same uses
			// see its definition. Moved restores the lists' layout order.
			ch.Moved(moved...)
			lv = dataflow.ComputeLiveness(fn, info)
			if hoisted != nil {
				hoisted(fn, ch)
			}
		}
	}
	return n
}

// hoisted, when set, sees the chains licm keeps after every loop that
// hoisted; tests compare them with a fresh build.
var hoisted func(fn *ir.Func, ch *chains.Chains)

// DCE removes pure instructions whose results are never observed and
// returns the number removed. It is exported for passes (the peephole
// rewriter) that orphan instructions and want the same cleanup the
// optimizer applies between its own rounds.
func DCE(fn *ir.Func) int { return dce(fn) }
