// Package vrange implements the value-range analysis the paper's array
// subscript handling (section 3) depends on: Theorems 2-4 need conditions of
// the form "0 <= i or j <= 0x7fffffff" or "maxlen-1-0x7fffffff <= i or j",
// which "can be determined at compile time using one of the value range
// analysis techniques [4, 7]".
//
// Ranges describe the semantic value of a definition: the low W bits of the
// destination register interpreted as a signed W-bit integer. This quantity
// is well defined even when the register's upper bits are dirty, and it is
// invariant under insertion or removal of 32-bit sign extensions, so ranges
// computed once per phase remain valid throughout the elimination phase.
//
// The fixpoint is solved sparsely without changing its order. Passes still
// visit definitions in layout order, but only the dirty ones: those whose
// transfer reads a range that changed since they were last evaluated. An
// evaluation skipped that way would have stored its previous result again,
// so the ranges are bit-identical to re-evaluating every definition every
// pass; a worklist in any other order would not be, because widening is
// order-sensitive.
package vrange

import (
	"math"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/dataflow"
	"signext/internal/ir"
)

// Range is an inclusive interval of signed values. Lo > Hi encodes bottom
// (no information yet / unreachable).
type Range struct {
	Lo, Hi int64
}

// Bottom is the empty range.
func Bottom() Range { return Range{1, 0} }

// Full32 is the full signed 32-bit range.
func Full32() Range { return Range{math.MinInt32, math.MaxInt32} }

// Full64 is the full signed 64-bit range.
func Full64() Range { return Range{math.MinInt64, math.MaxInt64} }

// IsBottom reports whether the range is empty.
func (r Range) IsBottom() bool { return r.Lo > r.Hi }

// Const returns the singleton range.
func Const(v int64) Range { return Range{v, v} }

// Union returns the smallest interval containing both ranges.
func (r Range) Union(o Range) Range {
	if r.IsBottom() {
		return o
	}
	if o.IsBottom() {
		return r
	}
	return Range{min64(r.Lo, o.Lo), max64(r.Hi, o.Hi)}
}

// Intersect returns the interval intersection.
func (r Range) Intersect(o Range) Range {
	if r.IsBottom() || o.IsBottom() {
		return Bottom()
	}
	return Range{max64(r.Lo, o.Lo), min64(r.Hi, o.Hi)}
}

// Within reports whether every value in r lies in [lo, hi]. A bottom range
// is vacuously within any interval.
func (r Range) Within(lo, hi int64) bool {
	if r.IsBottom() {
		return true
	}
	return r.Lo >= lo && r.Hi <= hi
}

// NonNeg reports whether the range is known non-negative (and bounded by the
// signed 32-bit maximum), i.e. the paper's "0 <= x <= 0x7fffffff".
func (r Range) NonNeg() bool { return r.Within(0, math.MaxInt32) }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// shlExact returns v<<n and whether the shift is exact in int64 (round
// trips without losing bits). Exact endpoint shifts make the whole interval
// shift exact: |v·2^n| is bounded by a representable endpoint product.
func shlExact(v int64, n uint) (int64, bool) {
	s := v << n
	return s, s>>n == v
}

// Analysis holds the fixpoint solution for one function.
//
// Its tables are dense. Per-instruction state is indexed by Instr.ID and sized
// by the function's NumInstrIDs at Compute; each operand of an instruction
// present then has a use slot, numbered in Instr.ID order. An instruction
// created after Compute reports no range.
type Analysis struct {
	fn     *ir.Func
	ch     *chains.Chains
	info   *cfg.Info
	mach   ir.Machine
	maxLen int64

	// Evals counts the transfer evaluations Compute made, a deterministic
	// measure of its work.
	Evals int

	nodes []node     // Instr.ID -> state
	order []int32    // IDs of the definitions, in layout order
	slots []slot     // use slot -> operand facts
	keys  []siteKey  // condition sites of a register at a block, per block and register read by a definition
	sites []condSite // backing array of every key's and memo entry's sites

	// Dependents, for the solve only: the definitions whose transfer reads
	// definition d are deps[off[d]:off[d+1]], by Instr.ID.
	off, deps []int32
	ndirty    int

	// The per-query memos the slots do not hold: condition sites by block
	// and register, seeded from the keys a transfer read on first use, and
	// the prefix memo of instructions created after Compute. Then
	// regReachesWithoutD's scratch.
	memo       map[blockReg]span
	latePrefix map[useKey]bool
	stamp      []uint32 // Block.ID -> epoch of the last walk that reached it
	epoch      uint32
	blocks     []*ir.Block
}

// node is the state of the instruction with one ID.
type node struct {
	ins            *ir.Instr // nil when no instruction had the ID at Compute
	r              Range     // the destination's range; bottom until first evaluated
	use, nuse      int32     // first use slot, and the operand count at Compute
	nread          int32     // the leading operands the transfer reads
	bumpLo, bumpHi int32     // widening counters
	def, dirty     bool      // ins had a destination at Compute; its transfer must be re-evaluated
}

// slot is one operand's facts. Compute fills blocked and key for every
// operand a definition's transfer reads before it solves; known records that
// the transfer read them, which is when the per-query memo takes them over.
type slot struct {
	known   bool  // blocked is memoized
	blocked bool  // a semantic definition of the register precedes the read in its block
	key     int32 // index in keys of the read's condition sites, -1 when none was computed
}

// siteKey is the condition sites of reg at blk. pub records that a transfer
// read them, so that a later query of the same block and register sees them.
type siteKey struct {
	blk *ir.Block
	reg ir.Reg
	span
	pub bool
}

type span struct{ lo, hi int32 }

type useKey struct {
	ins *ir.Instr
	op  int
}

const widenAfter = 8

// Compute runs the analysis. maxLen is the language's maximum array length
// (the paper's maxlen; 0x7fffffff for Java). info supplies the control-flow
// facts used to refine ranges with dominating branch conditions — the role
// played by symbolic range propagation in the paper's section 3.
//
// The solve is sparse but keeps round-robin order: each pass visits, in
// layout order, only the definitions marked dirty, and a definition whose
// range changes marks the definitions whose transfer reads it. A skipped
// evaluation would have read the ranges of its last one and so stored its
// result again, a no-op under Union and Intersect that leaves every widening
// decision as it was; the solution is that of visiting every definition
// every pass.
func Compute(fn *ir.Func, ch *chains.Chains, info *cfg.Info, mach ir.Machine, maxLen int64) *Analysis {
	a := newAnalysis(fn, ch, info, mach, maxLen)
	a.link()
	for _, id := range a.order {
		a.nodes[id].dirty = true
	}
	a.ndirty = len(a.order)
	// Widening bounds the changes of each definition, so the passes end.
	for pass := 0; a.ndirty > 0; pass++ {
		for _, id := range a.order {
			n := &a.nodes[id]
			if !n.dirty {
				continue
			}
			n.dirty = false
			a.ndirty--
			nr := a.transfer(n.ins)
			a.Evals++
			if pass > 0 {
				old := n.r
				nr = nr.Union(old) // monotone growth
				// Widen only the moving bound, so stable bounds (a loop
				// counter's zero floor) survive widening.
				full := a.fullFor(n.ins.W)
				if nr.Lo < old.Lo {
					n.bumpLo++
					if n.bumpLo > widenAfter {
						nr.Lo = full.Lo
					}
				}
				if nr.Hi > old.Hi {
					n.bumpHi++
					if n.bumpHi > widenAfter {
						nr.Hi = full.Hi
					}
				}
			}
			if nr != n.r {
				n.r = nr
				a.touch(id)
			}
		}
	}
	// Narrowing: widening overshoots moving bounds (a counter capped by a
	// branch still gets its Hi widened to +inf once it grows for more than
	// widenAfter passes). With the fixpoint converged, recomputing each
	// transfer over the final operand ranges and intersecting recovers the
	// precise interval; every stored range remains an over-approximation by
	// induction, so this is sound. The first pass visits every definition,
	// later ones the dirty ones.
	for pass := 0; pass < 3 && (pass == 0 || a.ndirty > 0); pass++ {
		for _, id := range a.order {
			n := &a.nodes[id]
			if n.dirty {
				n.dirty = false
				a.ndirty--
			} else if pass > 0 {
				continue
			}
			nr := a.transfer(n.ins).Intersect(n.r)
			a.Evals++
			if !nr.IsBottom() && nr != n.r {
				n.r = nr
				a.touch(id)
			}
		}
	}
	a.off, a.deps = nil, nil
	if observe != nil {
		observe(a)
	}
	return a
}

// observe, when set, is shown every Analysis Compute returns; the tests use
// it to check the sparse solve against the round-robin one.
var observe func(*Analysis)

// newAnalysis lays out the tables and computes, for every operand a
// definition's transfer reads, whether an earlier definition in its block rules out branch
// refinement and, if not, which condition sites apply.
func newAnalysis(fn *ir.Func, ch *chains.Chains, info *cfg.Info, mach ir.Machine, maxLen int64) *Analysis {
	a := &Analysis{fn: fn, ch: ch, info: info, mach: mach, maxLen: maxLen}
	if a.maxLen == 0 {
		a.maxLen = math.MaxInt32
	}
	a.nodes = make([]node, fn.NumInstrIDs())
	ndefs := 0
	for _, b := range fn.Blocks {
		for _, ins := range b.Instrs {
			n := node{ins: ins, r: Bottom(), nuse: int32(ins.NumUses()), def: ins.HasDst()}
			if n.def {
				n.nread = min(reads(ins), n.nuse)
				ndefs++
			}
			a.nodes[ins.ID] = n
		}
	}
	nslots := int32(0)
	for id := range a.nodes {
		a.nodes[id].use = nslots
		nslots += a.nodes[id].nuse
	}
	a.slots = make([]slot, nslots)
	for i := range a.slots {
		a.slots[i].key = -1
	}
	a.order = make([]int32, 0, ndefs)
	a.keys = make([]siteKey, 0, 4*len(fn.Blocks)) // typical: a few registers read per block
	// Per register: the block (position+1) holding its last semantic
	// definition seen so far, and the key of its sites in the current block.
	type regState struct{ defBlk, keyBlk, key int32 }
	regs := make([]regState, fn.NReg)
	for k, b := range fn.Blocks {
		bk := int32(k + 1)
		for _, ins := range b.Instrs {
			if !ins.HasDst() {
				continue
			}
			a.order = append(a.order, int32(ins.ID))
			n := &a.nodes[ins.ID]
			for op := int32(0); op < n.nread; op++ {
				s := &a.slots[n.use+op]
				if info == nil {
					continue
				}
				rs := &regs[ins.UseAt(int(op))]
				if s.blocked = rs.defBlk == bk; s.blocked {
					continue
				}
				if rs.keyBlk != bk {
					rs.keyBlk, rs.key = bk, int32(len(a.keys))
					lo := int32(len(a.sites))
					a.sites = a.appendCondSites(a.sites, b, ins.UseAt(int(op)))
					a.keys = append(a.keys, siteKey{blk: b, reg: ins.UseAt(int(op)), span: span{lo, int32(len(a.sites))}})
				}
				s.key = rs.key
			}
			if semanticDef(ins, ins.Dst) {
				regs[ins.Dst].defBlk = bk
			}
		}
	}
	return a
}

// link builds the dependents table: definition d's dependents are the
// definitions whose transfer can read d, through an operand's reaching
// definitions or through the other operand of one of the operand's
// condition sites.
func (a *Analysis) link() {
	a.off = make([]int32, len(a.nodes)+1)
	mark := make([]int32, len(a.nodes)) // def -> dependent last recorded, +1
	buf := make([]int32, 0, 64)
	for _, x := range a.order {
		buf = a.inputs(buf[:0], x)
		for _, d := range buf {
			if mark[d] != x+1 {
				mark[d] = x + 1
				a.off[d+1]++
			}
		}
	}
	for d := range a.nodes {
		a.off[d+1] += a.off[d]
	}
	a.deps = make([]int32, a.off[len(a.nodes)])
	fill := mark // reused: def -> next free position
	copy(fill, a.off)
	for _, x := range a.order {
		buf = a.inputs(buf[:0], x)
		for _, d := range buf {
			// Positions of d's run fill in order, so the last one filled
			// tells whether x is already recorded.
			if f := fill[d]; f == a.off[d] || a.deps[f-1] != x {
				a.deps[f] = x
				fill[d]++
			}
		}
	}
}

// inputs appends the IDs of the definitions x's transfer can read, with
// repeats.
func (a *Analysis) inputs(buf []int32, x int32) []int32 {
	n := &a.nodes[x]
	for op := int32(0); op < n.nread; op++ {
		buf = a.appendDefs(buf, n.ins, int(op))
		if s := a.slots[n.use+op]; s.key >= 0 {
			k := a.keys[s.key]
			for _, site := range a.sites[k.lo:k.hi] {
				buf = a.appendDefs(buf, site.t, 1-site.side)
			}
		}
	}
	return buf
}

// appendDefs appends the IDs of the definitions reaching operand op of ins.
func (a *Analysis) appendDefs(buf []int32, ins *ir.Instr, op int) []int32 {
	for _, d := range a.ch.UD(ins, op) {
		if n := a.nodeOf(d.Instr); n != nil && n.def {
			buf = append(buf, int32(d.Instr.ID))
		}
	}
	return buf
}

// touch marks the dependents of definition id dirty.
func (a *Analysis) touch(id int32) {
	for _, x := range a.deps[a.off[id]:a.off[id+1]] {
		if n := &a.nodes[x]; !n.dirty {
			n.dirty = true
			a.ndirty++
		}
	}
}

// nodeOf returns Compute's record of ins, or nil if ins was not in the
// function then.
func (a *Analysis) nodeOf(ins *ir.Instr) *node {
	if ins == nil || ins.ID < 0 || ins.ID >= len(a.nodes) || a.nodes[ins.ID].ins != ins {
		return nil
	}
	return &a.nodes[ins.ID]
}

func (a *Analysis) fullFor(w ir.Width) Range {
	if w == ir.W64 {
		return Full64()
	}
	return Full32()
}

// OfDef returns the range of the definition d.
func (a *Analysis) OfDef(d dataflow.DefSite) Range {
	if d.IsParam() {
		p := a.fn.Params[d.Param]
		if p.Float || p.Ref {
			return Full64()
		}
		return a.fullFor(p.W)
	}
	if n := a.nodeOf(d.Instr); n != nil && n.def {
		// Bottom until the fixpoint first visits it: optimistic, so cyclic
		// definitions (loop counters) converge to their least range
		// instead of starting at top.
		return n.r
	}
	return Bottom()
}

// OfDefRange returns the computed range of an instruction's destination and
// whether one exists.
func (a *Analysis) OfDefRange(ins *ir.Instr) (Range, bool) {
	if n := a.nodeOf(ins); n != nil && n.def {
		return n.r, true
	}
	return Range{}, false
}

// OfOperand returns the union of the ranges of every definition reaching the
// given operand.
func (a *Analysis) OfOperand(ins *ir.Instr, op int) Range {
	defs := a.ch.UD(ins, op)
	if len(defs) == 0 {
		return a.fullFor(ir.W64) // uninitialized: no information
	}
	r := Bottom()
	for _, d := range defs {
		r = r.Union(a.OfDef(d))
	}
	return r
}

// condSite is one branch condition that provably constrains a register at a
// query block: the branch t (conditional terminator of its block), which
// operand side carries the register, and whether the constraint is the
// branch condition or its negation.
type condSite struct {
	t       *ir.Instr
	side    int // operand index of the constrained register
	negated bool
}

type blockReg struct {
	blk *ir.Block
	reg ir.Reg
}

// OfOperandAt returns the operand's range refined by every branch condition
// that dominates the instruction: an edge D→S contributes when S dominates
// the query block, S's other predecessors are back edges (dominated by S),
// the branch compares the same register, and no semantic definition of the
// register can reach the query without re-passing D. This recovers the
// loop-bound facts ("i < n" inside a for body, across inner loops) that the
// paper obtains from symbolic range propagation [4, 7].
//
// Same-register 32-bit extensions and dummy markers preserve the semantic
// value our ranges describe, so they do not count as definitions here.
//
// Which definitions block the operand, and which conditions apply to its
// register at its block, are memoized when first asked (the function may
// change while the analysis is alive); what a transfer read during Compute
// counts as asked then.
func (a *Analysis) OfOperandAt(ins *ir.Instr, op int) Range {
	base := a.OfOperand(ins, op)
	if a.info == nil || ins.Blk == nil {
		return base
	}
	reg := ins.UseAt(op)
	var s *slot
	if n := a.nodeOf(ins); n != nil && op >= 0 && op < int(n.nuse) {
		s = &a.slots[n.use+int32(op)]
	}
	var blocked bool
	switch {
	case s != nil && s.known:
		blocked = s.blocked
	case s != nil:
		blocked = prefixDefines(ins, reg)
		s.known, s.blocked = true, blocked
	default:
		var seen bool
		if blocked, seen = a.latePrefix[useKey{ins, op}]; !seen {
			blocked = prefixDefines(ins, reg)
			if a.latePrefix == nil {
				a.latePrefix = map[useKey]bool{}
			}
			a.latePrefix[useKey{ins, op}] = blocked
		}
	}
	if blocked {
		return base
	}
	return a.refine(base, a.condSites(ins.Blk, reg))
}

// operand is OfOperandAt for a transfer during Compute, reading the facts
// newAnalysis laid out.
func (a *Analysis) operand(ins *ir.Instr, op int) Range {
	base := a.OfOperand(ins, op)
	if a.info == nil || ins.Blk == nil {
		return base
	}
	s := &a.slots[a.nodes[ins.ID].use+int32(op)]
	s.known = true
	if s.blocked {
		return base
	}
	k := &a.keys[s.key]
	k.pub = true
	return a.refine(base, a.sites[k.lo:k.hi])
}

// refine intersects base with every condition site's constraint.
func (a *Analysis) refine(base Range, sites []condSite) Range {
	for _, site := range sites {
		cond := site.t.Cond
		if site.negated {
			cond = cond.Negate()
		}
		other := a.OfOperand(site.t, 1-site.side)
		base = refineByCond(base, cond, site.side == 1, other, site.t.W)
	}
	return base
}

// prefixDefines reports whether a semantic definition of reg precedes ins in
// its block, which invalidates every dominating condition.
func prefixDefines(ins *ir.Instr, reg ir.Reg) bool {
	for _, x := range ins.Blk.Instrs {
		if x == ins {
			return false
		}
		if semanticDef(x, reg) {
			return true
		}
	}
	return false
}

// semanticDef reports whether ins changes the semantic (low-32-bit signed)
// value of reg.
func semanticDef(ins *ir.Instr, reg ir.Reg) bool {
	if !ins.HasDst() || ins.Dst != reg {
		return false
	}
	switch ins.Op {
	case ir.OpExtDummy:
		return false
	case ir.OpExt:
		// ext.32 rewrites only the upper half; narrower extensions change
		// the 32-bit value.
		return !(ins.W == ir.W32 && ins.Srcs[0] == reg)
	}
	return true
}

// condSites returns the dominating branch conditions applicable to reg at
// block b, memoized on first query along with those a transfer read during
// Compute.
func (a *Analysis) condSites(b *ir.Block, reg ir.Reg) []condSite {
	if a.memo == nil {
		a.memo = map[blockReg]span{}
		for _, k := range a.keys {
			if k.pub {
				a.memo[blockReg{k.blk, k.reg}] = k.span
			}
		}
	}
	key := blockReg{b, reg}
	sp, ok := a.memo[key]
	if !ok {
		sp.lo = int32(len(a.sites))
		a.sites = a.appendCondSites(a.sites, b, reg)
		sp.hi = int32(len(a.sites))
		a.memo[key] = sp
	}
	return a.sites[sp.lo:sp.hi]
}

// appendCondSites appends the dominating branch conditions applicable to reg
// at block b, walking the dominator tree from b up to the entry.
func (a *Analysis) appendCondSites(out []condSite, b *ir.Block, reg ir.Reg) []condSite {
	for d, prev := b, (*ir.Block)(nil); d != nil && d != prev; prev, d = d, a.info.IdomOf(d) {
		t := d.Term()
		if t == nil || t.Op != ir.OpBr || len(d.Succs) != 2 || d.Succs[0] == d.Succs[1] {
			continue
		}
		for side := 0; side < 2; side++ {
			if t.Srcs[side] != reg {
				continue
			}
			for edge := 0; edge < 2; edge++ {
				s := d.Succs[edge]
				if !a.info.Dominates(s, b) {
					continue
				}
				// The edge must be the region's only entry: every other
				// predecessor of S is a back edge from within S's region.
				entryOK := true
				for _, p := range s.Preds {
					if p != d && !a.info.Dominates(s, p) {
						entryOK = false
					}
				}
				if !entryOK {
					continue
				}
				if a.regReachesWithoutD(b, d, reg) {
					continue // a definition can reach the query bypassing D
				}
				out = append(out, condSite{t: t, side: side, negated: edge == 1})
			}
		}
	}
	return out
}

// regReachesWithoutD reports whether some semantic definition of reg reaches
// block b along a path that does not pass through d (in which case d's
// branch condition may be stale at b). The query block's own instructions
// are checked separately by the caller.
func (a *Analysis) regReachesWithoutD(b, d *ir.Block, reg ir.Reg) bool {
	// Backward reachability from b in the CFG with d removed, looking for
	// blocks containing semantic defs of reg. b itself is scanned in full if
	// a cycle re-reaches it: a definition anywhere in b then lies between d
	// and the query on some d-free path.
	if a.epoch++; a.epoch == 0 {
		clear(a.stamp)
		a.epoch = 1
	}
	stack := a.pushPreds(a.blocks[:0], b, d)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, insX := range x.Instrs {
			if semanticDef(insX, reg) {
				a.blocks = stack
				return true
			}
		}
		stack = a.pushPreds(stack, x, d)
	}
	a.blocks = stack
	return false
}

// pushPreds appends the predecessors of x other than d that this walk has not
// reached yet.
func (a *Analysis) pushPreds(stack []*ir.Block, x, d *ir.Block) []*ir.Block {
	for _, p := range x.Preds {
		if p == d {
			continue
		}
		if p.ID >= len(a.stamp) {
			a.stamp = append(a.stamp, make([]uint32, max(p.ID+1, a.fn.NumBlockIDs())-len(a.stamp))...)
		}
		if a.stamp[p.ID] != a.epoch {
			a.stamp[p.ID] = a.epoch
			stack = append(stack, p)
		}
	}
	return stack
}

// refineByCond intersects base with the constraint "x cond other" (or
// "other cond x" when mirrored), for a width-w integer compare.
func refineByCond(base Range, cond ir.Cond, mirrored bool, other Range, w ir.Width) Range {
	if other.IsBottom() {
		return base
	}
	if mirrored {
		// other cond x  ==  x cond' other
		switch cond {
		case ir.CondLT:
			cond = ir.CondGT
		case ir.CondLE:
			cond = ir.CondGE
		case ir.CondGT:
			cond = ir.CondLT
		case ir.CondGE:
			cond = ir.CondLE
		case ir.CondULT:
			cond = ir.CondUGT
		case ir.CondULE:
			cond = ir.CondUGE
		case ir.CondUGT:
			cond = ir.CondULT
		case ir.CondUGE:
			cond = ir.CondULE
		}
	}
	max := int64(math.MaxInt64)
	min := int64(math.MinInt64)
	switch cond {
	case ir.CondEQ:
		return base.Intersect(other)
	case ir.CondNE:
		return base
	case ir.CondLT:
		if other.Hi < max {
			return base.Intersect(Range{min, other.Hi - 1})
		}
	case ir.CondLE:
		return base.Intersect(Range{min, other.Hi})
	case ir.CondGT:
		if other.Lo > min {
			return base.Intersect(Range{other.Lo + 1, max})
		}
	case ir.CondGE:
		return base.Intersect(Range{other.Lo, max})
	case ir.CondULT, ir.CondULE:
		// An unsigned upper bound by a value known within the signed
		// positive half pins the sign bit to zero (the bounds-check fact).
		limit := int64(math.MaxInt32)
		if w == ir.W64 {
			limit = math.MaxInt64
		}
		if other.Within(0, limit) {
			hi := other.Hi
			if cond == ir.CondULT {
				hi--
			}
			return base.Intersect(Range{0, hi})
		}
	}
	return base
}

// ConstOperand reports whether operand op of ins is a known constant.
func (a *Analysis) ConstOperand(ins *ir.Instr, op int) (int64, bool) {
	r := a.OfOperand(ins, op)
	if !r.IsBottom() && r.Lo == r.Hi {
		return r.Lo, true
	}
	return 0, false
}

// reads returns how many leading operands transfer reads for ins: the
// operands whose ranges, and whose condition sites' ranges, the definition's
// range depends on. It must cover every src(k) of transfer.
func reads(ins *ir.Instr) int32 {
	switch ins.Op {
	case ir.OpMov, ir.OpExt, ir.OpExtDummy, ir.OpNeg, ir.OpNot:
		return 1
	case ir.OpZext:
		if ins.W == ir.W64 {
			return 1
		}
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpDiv, ir.OpRem:
		return 2
	}
	return 0
}

func (a *Analysis) transfer(ins *ir.Instr) Range {
	w := ins.W
	full := a.fullFor(w)
	src := func(k int) Range { return a.operand(ins, k).Intersect(Full64()) }
	switch ins.Op {
	case ir.OpConst:
		return Const(ins.Const)
	case ir.OpMov:
		return src(0)
	case ir.OpExt:
		// The semantic 32-bit value of ext.W is sext_W of the operand's low
		// W bits; when the operand already fits in W bits the value is
		// unchanged.
		s := src(0)
		lim := Range{-(1 << (w - 1)), 1<<(w-1) - 1}
		if w == ir.W32 {
			// ext.32 leaves the low 32 bits alone: the W32 semantic value
			// is exactly the operand's.
			return s
		}
		if s.Within(lim.Lo, lim.Hi) {
			return s
		}
		return lim
	case ir.OpExtDummy:
		// Array-access postcondition: the index's semantic value was in
		// [0, maxlen-1] (section 3, predicate LS).
		return src(0).Intersect(Range{0, a.maxLen - 1})
	case ir.OpZext:
		if w == ir.W64 {
			return src(0)
		}
		return Range{0, int64(w.Mask())}
	case ir.OpAdd:
		return a.addRange(src(0), src(1), w)
	case ir.OpSub:
		s1 := src(1)
		if s1.IsBottom() {
			return Bottom()
		}
		neg := Range{-s1.Hi, -s1.Lo}
		if s1.Lo == math.MinInt64 {
			neg = Full64()
		}
		return a.addRange(src(0), neg, w)
	case ir.OpMul:
		x, y := src(0), src(1)
		if x.IsBottom() || y.IsBottom() {
			return Bottom()
		}
		lo, hi, ok := mulBounds(x, y)
		if !ok {
			return full
		}
		r := Range{lo, hi}
		if !r.Within(full.Lo, full.Hi) {
			return full
		}
		return r
	case ir.OpNeg:
		s := src(0)
		if s.IsBottom() {
			return Bottom()
		}
		if s.Lo == full.Lo { // -MinInt wraps
			return full
		}
		return Range{-s.Hi, -s.Lo}
	case ir.OpNot:
		s := src(0)
		if s.IsBottom() {
			return Bottom()
		}
		return Range{^s.Hi, ^s.Lo}
	case ir.OpAnd:
		x, y := src(0), src(1)
		if x.IsBottom() || y.IsBottom() {
			return Bottom()
		}
		// x & y with a non-negative operand is bounded by it.
		hi := int64(math.MaxInt64)
		known := false
		if x.NonNeg() || (w == ir.W64 && x.Within(0, math.MaxInt64)) {
			hi = min64(hi, x.Hi)
			known = true
		}
		if y.NonNeg() || (w == ir.W64 && y.Within(0, math.MaxInt64)) {
			hi = min64(hi, y.Hi)
			known = true
		}
		if known {
			return Range{0, hi}
		}
		return full
	case ir.OpOr, ir.OpXor:
		x, y := src(0), src(1)
		if x.IsBottom() || y.IsBottom() {
			return Bottom()
		}
		if x.Within(0, full.Hi) && y.Within(0, full.Hi) {
			return Range{0, full.Hi}
		}
		return full
	case ir.OpShl:
		x, y := src(0), src(1)
		if x.IsBottom() || y.IsBottom() {
			return Bottom()
		}
		if y.Within(0, int64(w)-1) {
			// Each endpoint shift is checked for int64 overflow by round
			// trip; a result interval that can leave the W-bit signed range
			// wraps at the width boundary, so only an in-range interval is
			// usable.
			lo, okLo := shlExact(x.Lo, uint(y.Lo))
			hi, okHi := shlExact(x.Hi, uint(y.Hi))
			if x.Lo < 0 {
				// A negative lower bound moves further down as the shift
				// grows.
				lo, okLo = shlExact(x.Lo, uint(y.Hi))
			}
			if x.Hi < 0 {
				// An all-negative range peaks at the smallest shift.
				hi, okHi = shlExact(x.Hi, uint(y.Lo))
			}
			if okLo && okHi {
				r := Range{lo, hi}
				if r.Within(full.Lo, full.Hi) {
					return r
				}
			}
		}
		return full
	case ir.OpLShr:
		x, y := src(0), src(1)
		if x.IsBottom() || y.IsBottom() {
			return Bottom()
		}
		// A dividend with known-zero upper bits shifts like an unsigned
		// quantity whose interval is exact: this is the fact the magic
		// division rewrite both consumes (proving its operand range) and
		// produces (its >>u S result is the quotient range).
		if x.Within(0, full.Hi) && y.Within(0, int64(w)-1) {
			return Range{x.Lo >> uint(y.Hi), x.Hi >> uint(y.Lo)}
		}
		if y.Within(1, int64(w)-1) {
			// Any one-or-more-bit logical shift clears the sign bit: the
			// result is bounded by the shifted all-ones pattern even when
			// nothing is known about the value.
			if w == ir.W64 {
				return Range{0, int64(^uint64(0) >> uint(y.Lo))}
			}
			return Range{0, int64(w.Mask() >> uint(y.Lo))}
		}
		// A zero shift leaves the (possibly negative) low bits intact.
		return full
	case ir.OpAShr:
		x, y := src(0), src(1)
		if x.IsBottom() || y.IsBottom() {
			return Bottom()
		}
		lo, hi := min64(x.Lo, 0), max64(x.Hi, 0)
		if y.Lo == y.Hi && y.Lo >= 0 && y.Lo < int64(w) {
			// Known shift amount: exact interval shift (sound for signed
			// values; >> rounds toward minus infinity on both bounds).
			lo, hi = x.Lo>>uint(y.Lo), x.Hi>>uint(y.Lo)
		} else if x.NonNeg() && y.Lo >= 0 && y.Lo < int64(w) {
			hi = x.Hi >> uint(y.Lo)
			lo = 0
		}
		return Range{lo, hi}.Intersect(full)
	case ir.OpDiv:
		x, y := src(0), src(1)
		if x.Within(0, full.Hi) && y.Within(1, full.Hi) {
			return Range{0, x.Hi}
		}
		return full
	case ir.OpRem:
		x, y := src(0), src(1)
		if x.Within(0, full.Hi) && y.Within(1, full.Hi) {
			return Range{0, y.Hi - 1}
		}
		return full
	case ir.OpLoadG, ir.OpArrLoad:
		if ins.Float {
			return Full64()
		}
		if w == ir.W64 {
			return Full64()
		}
		if a.mach == ir.PPC64 {
			return Range{-(1 << (w - 1)), 1<<(w-1) - 1}
		}
		// IA64 zero-extends: for sub-32-bit widths the 32-bit semantic
		// value is the unsigned cell value.
		if w == ir.W32 {
			return Full32()
		}
		return Range{0, int64(w.Mask())}
	case ir.OpArrLen, ir.OpNewArr:
		return Range{0, a.maxLen}
	case ir.OpD2I:
		return Full32()
	case ir.OpD2L:
		return Full64()
	default:
		return a.fullFor(ir.W64)
	}
}

// addRange models a W-bit addition: exact interval arithmetic unless the
// result can leave the W-bit signed range, in which case it wraps and we give
// up.
func (a *Analysis) addRange(x, y Range, w ir.Width) Range {
	if x.IsBottom() || y.IsBottom() {
		return Bottom()
	}
	full := a.fullFor(w)
	lo, lok := addNoOverflow(x.Lo, y.Lo)
	hi, hok := addNoOverflow(x.Hi, y.Hi)
	if !lok || !hok {
		return full
	}
	r := Range{lo, hi}
	if !r.Within(full.Lo, full.Hi) {
		return full
	}
	return r
}

func addNoOverflow(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func mulBounds(x, y Range) (int64, int64, bool) {
	vals := [4]int64{}
	cands := [4][2]int64{{x.Lo, y.Lo}, {x.Lo, y.Hi}, {x.Hi, y.Lo}, {x.Hi, y.Hi}}
	for k, c := range cands {
		p := c[0] * c[1]
		if c[0] != 0 && (p/c[0] != c[1]) {
			return 0, 0, false
		}
		vals[k] = p
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min64(lo, v), max64(hi, v)
	}
	return lo, hi, true
}
