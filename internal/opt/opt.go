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
// changing (bounded number of rounds). The CFG and the UD/DU chains are
// built once: no pass changes the CFG, and every pass keeps the chains
// equal to a fresh build of what it leaves.
func Run(fn *ir.Func) Stats {
	info := cfg.Compute(fn)
	ch := chains.Build(fn, info)
	step := func(pass string, n int) int {
		if passed != nil {
			passed(pass, fn, ch)
		}
		return n
	}
	var total Stats
	for round := 0; round < 4; round++ {
		var st Stats
		st.Folded = step("constFold", constFold(fn, ch))
		st.Copies = step("localCopyProp", localCopyProp(fn, ch))
		st.CSE = step("localCSE", localCSE(fn, ch))
		st.Hoisted = step("licm", licm(fn, info, ch))
		st.Dead = step("dce", dce(fn, info, ch))
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
// least as defined as the original dirty register. A folded instruction
// reads nothing, so its uses leave the chains; no definition changes.
func constFold(fn *ir.Func, ch *chains.Chains) int {
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
		ch.DropUses(ins)
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
// copy source while neither register is redefined. Nothing redefines the
// source between the copy and a rewritten use, so the definitions reaching
// the copy's operand are exactly those reaching the rewritten one.
func localCopyProp(fn *ir.Func, ch *chains.Chains) int {
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
							ch.SetUD(x, op, ch.UD(ins, 0))
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
	ch.Sort()
	return n
}

// localCSE replaces, within each block, a pure recomputation of an earlier
// expression with a copy of the earlier result. Sign extensions participate:
// two identical "r = ext.32 r" in a row collapse.
//
// An expression stays available while none of its registers (the result's
// and the sources') is redefined. Each register carries the stamp of its
// latest definition, so an entry is current while no stamp of its registers
// is later than its own. The copy reads the result where the earlier
// instruction left it, so that instruction is the copy's one definition.
func localCSE(fn *ir.Func, ch *chains.Chains) int {
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
	type held struct {
		ins   *ir.Instr // the instruction whose result holds the expression
		stamp int32     // its definition's stamp
	}
	n := 0
	avail := map[exprKey]held{}
	stamps := make([]int32, fn.NReg) // register -> stamp of its latest definition
	now := int32(0)
	copied := make([]dataflow.DefSite, 1) // the one definition a copy reads
	current := func(k exprKey, h held) bool {
		return stamps[h.ins.Dst] <= h.stamp &&
			(k.s0 == ir.NoReg || stamps[k.s0] <= h.stamp) &&
			(k.s1 == ir.NoReg || stamps[k.s1] <= h.stamp)
	}
	for _, b := range fn.Blocks {
		clear(avail)
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
				if h, ok := avail[k]; ok && current(k, h) && h.ins.Dst != ins.Dst {
					// Reuse the prior result. The width is preserved: the
					// copy's width is what register-kind inference reads, so
					// rewriting a 32-bit producer into a mov.64 would
					// silently retype the register as a long.
					op := ir.OpMov
					if ins.Op == ir.OpFConst || kindIsFloat(ins.Op) {
						op = ir.OpFMov
					}
					ins.Op = op
					ins.Srcs[0] = h.ins.Dst
					ins.NSrcs = 1
					ins.Const = 0
					ch.DropUses(ins)
					copied[0] = dataflow.DefSite{Instr: h.ins, Param: -1, Reg: h.ins.Dst}
					ch.SetUD(ins, 0, copied)
					n++
					replaced = true
				}
			}
			// The definition ends every expression mentioning dst —
			// including, for a self-overwriting op, the one this very
			// instruction would otherwise make available.
			if ins.HasDst() {
				now++
				stamps[ins.Dst] = now
			}
			if cseable && !replaced && ins.Dst != k.s0 && ins.Dst != k.s1 {
				if h, ok := avail[k]; !ok || !current(k, h) {
					avail[k] = held{ins, now}
				}
			}
		}
	}
	ch.Sort()
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

// dce removes pure instructions whose results are never observed. A removed
// definition reaches no remaining use, so ch, when given, forgets the removed
// instructions and stays current.
func dce(fn *ir.Func, info *cfg.Info, ch *chains.Chains) int {
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
		for _, d := range dead { // users before the definitions they read
			b.Remove(d)
			if ch != nil {
				ch.Forget(d)
			}
			n++
		}
	}
	return n
}

// licm hoists loop-invariant pure instructions into loop preheaders — the
// effect the paper obtains from its partial redundancy elimination phase
// ("loop-invariant sign extensions can be moved out of the loop").
func licm(fn *ir.Func, info *cfg.Info, ch *chains.Chains) int {
	if !info.HasLoop() {
		return 0
	}
	lv := newLiveness(fn, info)
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
				live := lv.LiveIn(l.Header, ins.Dst)
				if liveRead != nil {
					liveRead(fn, l.Header, ins.Dst, live)
				}
				if live {
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
			// The chains stay current: the hoisted instruction is the
			// loop's only definition of a register not live into the
			// header, and its operands are defined only outside the loop,
			// so the same definitions reach its operands at the end of the
			// preheader and the same uses see its definition. Moved
			// restores the lists' layout order. Liveness changed for the
			// hoisted destinations and sources only.
			ch.Moved(moved...)
			lv.markStale(moved)
			if hoisted != nil {
				hoisted(fn, ch, lv)
			}
		}
	}
	return n
}

// liveness answers LiveIn for the IR as licm leaves it. The sets are solved
// once, when licm starts. Moving an instruction changes the liveness of its
// destination and its sources only, so after a loop hoists, those registers
// are stale: a search over the blocks answers for them, and the sets for
// every other register.
type liveness struct {
	sets   *dataflow.Liveness
	stale  dataflow.BitSet // registers whose sets are out of date
	seen   []int32         // Block.ID -> the search that last reached it
	search int32
	work   []*ir.Block
}

func newLiveness(fn *ir.Func, info *cfg.Info) *liveness {
	return &liveness{
		sets:  dataflow.ComputeLiveness(fn, info),
		stale: dataflow.NewBitSet(fn.NReg),
		seen:  make([]int32, fn.NumBlockIDs()),
	}
}

// markStale marks the registers whose liveness the moves changed. licm marks
// them when a loop is done: no later candidate in the same loop defines one
// of them, since an in-loop definition of a hoisted destination or source
// would have kept the hoist in the loop.
func (lv *liveness) markStale(moved []*ir.Instr) {
	for _, ins := range moved {
		lv.stale.Set(int(ins.Dst))
		ins.ForEachUse(func(_ int, r ir.Reg) { lv.stale.Set(int(r)) })
	}
}

// LiveIn reports whether reg is live at the entry of b: whether some path
// from there reads reg before writing it.
func (lv *liveness) LiveIn(b *ir.Block, reg ir.Reg) bool {
	if !lv.stale.Has(int(reg)) {
		return lv.sets.LiveIn(b, reg)
	}
	lv.search++
	lv.seen[b.ID] = lv.search
	lv.work = append(lv.work[:0], b)
	for len(lv.work) > 0 {
		b := lv.work[len(lv.work)-1]
		lv.work = lv.work[:len(lv.work)-1]
		written := false
		for _, ins := range b.Instrs {
			for op := 0; op < ins.NumUses(); op++ {
				if ins.UseAt(op) == reg {
					return true
				}
			}
			if ins.HasDst() && ins.Dst == reg {
				written = true
				break
			}
		}
		if written {
			continue
		}
		for _, s := range b.Succs {
			if lv.seen[s.ID] != lv.search {
				lv.seen[s.ID] = lv.search
				lv.work = append(lv.work, s)
			}
		}
	}
	return false
}

// Hooks for tests: passed sees the chains Run keeps after every pass,
// hoisted the chains and liveness licm keeps after every loop that hoisted,
// and liveRead every liveness answer licm acts on.
var (
	passed   func(pass string, fn *ir.Func, ch *chains.Chains)
	hoisted  func(fn *ir.Func, ch *chains.Chains, lv *liveness)
	liveRead func(fn *ir.Func, b *ir.Block, reg ir.Reg, live bool)
)

// DCE removes pure instructions whose results are never observed and
// returns the number removed. It is exported for passes (the peephole
// rewriter) that orphan instructions and want the same cleanup the
// optimizer applies between its own rounds.
func DCE(fn *ir.Func) int { return dce(fn, cfg.Compute(fn), nil) }
