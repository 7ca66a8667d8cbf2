package extelim

import (
	"math"
	"time"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/dataflow"
	"signext/internal/freq"
	"signext/internal/ir"
	"signext/internal/profile"
	"signext/internal/vrange"
)

// Config selects which components of the paper's algorithm run, matching the
// variant rows of Tables 1 and 2.
type Config struct {
	Machine     ir.Machine
	MaxArrayLen int64 // the language's maxlen (0 = 0x7fffffff, Java's)

	Insert bool // sign extension insertion (section 2.1)
	Order  bool // order determination (section 2.2)
	Array  bool // elimination for array indices (section 3)
	UsePDE bool // replace simple insertion with the PDE-style variant

	Profile profile.Profile // optional dynamic branch profile for ordering

	// MaxWork caps the per-function analysis effort (counted in chain
	// traversal queries, mirroring interp.MaxSteps). 0 means unlimited. On
	// an adversarial CFG the memoized traversals are polynomial but can
	// still be arbitrarily expensive; when the budget runs out the
	// remaining candidates are simply kept (always sound) and
	// Stats.BudgetExhausted reports it so the driver can fall back.
	MaxWork int
}

// Stats reports what the elimination phase did to one function.
type Stats struct {
	Inserted   int // extensions added by the insertion phase
	Dummies    int // just_extended() markers added (and later removed)
	Eliminated int // extensions removed
	Remaining  int // extensions left in the function

	// BudgetExhausted reports that Config.MaxWork ran out before every
	// candidate was analyzed; the function is still correct (unanalyzed
	// extensions are kept), just not fully optimized.
	BudgetExhausted bool

	// ChainTime is the time spent creating the shared analyses — UD/DU
	// chains and value ranges — reported separately because the paper's
	// Table 3 does: chains "are used for other optimizations" and value
	// range analysis likewise serves e.g. bounds-check elimination, so
	// neither is charged to the sign extension phase proper.
	ChainTime time.Duration
}

// Eliminate runs the paper's phase (3): insertion, order determination and
// UD/DU-chain elimination. The function must already be in 64-bit form
// (Convert64). Returns per-function statistics.
func Eliminate(fn *ir.Func, cfg Config) Stats {
	e := newEliminator(fn, cfg)
	return e.run()
}

type eliminator struct {
	fn   *ir.Func
	cfg  Config
	info *cfg.Info
	ch   *chains.Chains
	vr   *vrange.Analysis

	maxLen int64

	// Per-EliminateOneExtend traversal state (the paper's USE/DEF/ARRAY
	// instruction flags), reset before each candidate. Unlike the paper's
	// single-bit flags, finished queries memoize their result; only
	// in-progress revisits (cycles) answer optimistically.
	// Flag maps are allocated once and reset per candidate with a
	// generation stamp (value = gen<<2 | state), avoiding per-candidate
	// allocation in the hot elimination loop.
	gen      int64
	useFlags map[useSiteKey]int64
	defFlags map[defKey]int64
	u32Flags map[*ir.Instr]int64
	arrFlags map[*ir.Instr]int64

	// work counts chain traversal queries against cfg.MaxWork. When the
	// budget is spent, every pending query answers conservatively ("the
	// extension is required"), which is always sound.
	work     int
	overWork bool

	// candidate is the extension currently being analyzed. Definition-side
	// traversals treat it as absent ("transparent"), looking through to the
	// definitions of its source: the analysis must describe the world after
	// the removal it is trying to justify.
	candidate *ir.Instr
}

type useSiteKey struct {
	ins *ir.Instr
	op  int
}

type defKey struct {
	ins *ir.Instr
	w   uint8
}

// Traversal memo states.
const (
	qUnseen     int8 = 0
	qInProgress int8 = 1
	qFalse      int8 = 2 // finished: result false
	qTrue       int8 = 3 // finished: result true
)

func newEliminator(fn *ir.Func, c Config) *eliminator {
	e := &eliminator{fn: fn, cfg: c, maxLen: c.MaxArrayLen}
	if e.maxLen == 0 {
		e.maxLen = math.MaxInt32
	}
	return e
}

func (e *eliminator) run() Stats {
	var st Stats
	e.info = cfg.Compute(e.fn)
	kinds := ir.Kinds(e.fn)

	// Phase (3)-1: insertion. The simple algorithm applies only to methods
	// that contain a loop (compilation-time/effectiveness balance); dummies
	// accompany both the insertion and the array analysis, which relies on
	// their postcondition.
	if e.cfg.Insert && e.info.HasLoop() {
		if e.cfg.UsePDE {
			st.Inserted += insertPDE(e.fn, e.info)
		} else {
			st.Inserted += insertSimple(e.fn, kinds, e.cfg.Machine)
		}
	}
	if e.cfg.Insert || e.cfg.Array {
		st.Dummies = insertDummies(e.fn, kinds)
	}
	if st.Inserted > 0 || st.Dummies > 0 {
		e.info = cfg.Compute(e.fn) // block contents changed
	}

	// UD/DU chains over the post-insertion function.
	tc := time.Now()
	e.ch = chains.Build(e.fn, e.info)
	e.vr = vrange.Compute(e.fn, e.ch, e.info, e.cfg.Machine, e.maxLen)
	st.ChainTime = time.Since(tc)

	// Phase (3)-2: order determination. With ordering enabled, blocks are
	// processed hottest-first; otherwise in the fixed reverse-DFS order the
	// paper uses for the no-ordering variants.
	var order []*ir.Block
	if e.cfg.Order {
		order = freq.Compute(e.fn, e.info, e.cfg.Profile).HotFirst()
	} else {
		order = e.info.RPO
	}

	// Phase (3)-3: eliminate, hottest region first.
	for _, b := range order {
		if e.overWork {
			break
		}
		// Snapshot: elimination mutates the block.
		exts := []*ir.Instr{}
		for _, ins := range b.Instrs {
			if ins.IsExt() {
				exts = append(exts, ins)
			}
		}
		for _, x := range exts {
			if e.overWork {
				break
			}
			if e.eliminateOneExtend(x) {
				st.Eliminated++
			}
		}
	}
	st.BudgetExhausted = e.overWork

	removeDummies(e.fn)
	st.Remaining = e.fn.CountOp(ir.OpExt)
	return st
}

// spend charges one traversal query against the work budget and reports
// whether analysis may continue. Once the budget is exhausted every query
// answers conservatively, so candidates analyzed after that point are kept.
func (e *eliminator) spend() bool {
	if e.cfg.MaxWork <= 0 {
		return true
	}
	if e.work >= e.cfg.MaxWork {
		e.overWork = true
		return false
	}
	e.work++
	return true
}

// eliminateOneExtend is the paper's EliminateOneExtend: analyze one extension
// with fresh traversal flags and remove it when no use requires it (DU
// direction) or its source is already extended (UD direction).
func (e *eliminator) eliminateOneExtend(ext *ir.Instr) bool {
	if e.useFlags == nil {
		e.useFlags = map[useSiteKey]int64{}
		e.defFlags = map[defKey]int64{}
		e.u32Flags = map[*ir.Instr]int64{}
		e.arrFlags = map[*ir.Instr]int64{}
	}
	e.gen++
	e.candidate = ext

	required := false
	for _, u := range e.ch.DU(ext) {
		if e.analyzeUSE(ext, u.Instr, u.OpIdx, true) {
			required = true
			break
		}
	}
	if required {
		required = false
		for _, d := range e.ch.UD(ext, 0) {
			if e.analyzeDEF(d, uint8(ext.W)) {
				required = true
				break
			}
		}
	}
	if required {
		return false
	}
	if ext.Dst == ext.Srcs[0] {
		e.ch.RemoveSameRegExt(ext)
	} else {
		// A cross-register extension (a fused copy+extend, e.g. from a cast
		// or copy propagation) is demoted to a plain register copy: the
		// chains are untouched because definition and use sites are
		// unchanged, and the sxt disappears from the generated code.
		ext.Op = ir.OpMov
		ext.W = ir.W64
	}
	return true
}

// analyzeUSE reports whether the use at (ins, op) requires ext's result to be
// properly extended beyond ext.W bits. canArray tracks the paper's
// ANALYZE_ARRAY flag: it stays true only while the value reaches the array
// access unchanged (through copies), because the subscript theorems are
// stated about the extension's own register.
func (e *eliminator) analyzeUSE(ext *ir.Instr, ins *ir.Instr, op int, canArray bool) bool {
	if !e.spend() {
		return true // out of budget: conservatively required
	}
	key := useSiteKey{ins, op}
	if v := e.useFlags[key]; v>>2 == e.gen {
		switch int8(v & 3) {
		case qInProgress, qFalse:
			return false // in-progress: cycle, no requirement via this path
		case qTrue:
			return true
		}
	}
	e.useFlags[key] = e.gen<<2 | int64(qInProgress)
	req := e.analyzeUSE1(ext, ins, op, canArray)
	if req {
		e.useFlags[key] = e.gen<<2 | int64(qTrue)
	} else {
		e.useFlags[key] = e.gen<<2 | int64(qFalse)
	}
	return req
}

func (e *eliminator) analyzeUSE1(ext *ir.Instr, ins *ir.Instr, op int, canArray bool) bool {
	w := uint8(ext.W)
	u := ir.UseOf(ins, op)
	switch u.Class {
	case ir.UseRef, ir.UseFloat:
		return false
	case ir.UseLow:
		// Case 1: only the low bits participate.
		return u.Bits > w
	case ir.UseAll:
		return true
	case ir.UseIndex:
		if canArray && e.cfg.Array {
			return e.analyzeARRAY(ext, ins)
		}
		return true
	case ir.UseThrough:
		// Case 2: the operand's suspect bits (>= w) feed only the result's
		// bits >= w, so the requirement is inherited from the result's
		// uses. Copies and one level of +/- keep the subscript analyzable
		// (the theorems cover subscript expressions i, i+j and i-j); any
		// other operation makes it "impossible to analyze array's address
		// computation via I" and clears the paper's ANALYZE_ARRAY flag.
		switch ins.Op {
		case ir.OpMov, ir.OpAdd, ir.OpSub:
		default:
			canArray = false
		}
		if ins.W != ir.W64 && uint8(ins.W) < w {
			// A narrower through-op caps the meaningful bits below the
			// extension width; bits beyond its width are garbage anyway.
			return true
		}
		for _, uu := range e.ch.DU(ins) {
			if e.analyzeUSE(ext, uu.Instr, uu.OpIdx, canArray) {
				return true
			}
		}
		return false
	}
	return true
}

// analyzeDEF reports whether the definition d fails to produce a value
// sign-extended from w bits (true = an extension is still necessary).
func (e *eliminator) analyzeDEF(d dataflow.DefSite, w uint8) bool {
	if !e.spend() {
		return true // out of budget: conservatively not extended
	}
	if d.IsParam() {
		p := e.fn.Params[d.Param]
		if p.Float || p.Ref {
			return false
		}
		pw := uint8(p.W)
		if pw > 32 {
			return false // full-width values need no extension
		}
		return pw > w // parameters arrive extended from their width
	}
	ins := d.Instr
	key := defKey{ins, w}
	if v := e.defFlags[key]; v>>2 == e.gen {
		switch int8(v & 3) {
		case qInProgress, qFalse:
			return false // in-progress: cycle, optimistic per the DEF flag
		case qTrue:
			return true
		}
	}
	e.defFlags[key] = e.gen<<2 | int64(qInProgress)
	req := e.analyzeDEF1(ins, w)
	if req {
		e.defFlags[key] = e.gen<<2 | int64(qTrue)
	} else {
		e.defFlags[key] = e.gen<<2 | int64(qFalse)
	}
	return req
}

func (e *eliminator) analyzeDEF1(ins *ir.Instr, w uint8) bool {
	if ins == e.candidate {
		// Transparent: the candidate is hypothetically removed, so the value
		// here is whatever its source definitions produce. This is what
		// keeps Figure 9's entry extension alive (its source i=j+k is dirty)
		// while the dummy markers let the in-loop extension go.
		for _, dd := range e.ch.UD(ins, 0) {
			if e.analyzeDEF(dd, w) {
				return true
			}
		}
		return false
	}
	def := ir.DefOf(ins, e.cfg.Machine)
	switch def.Class {
	case ir.DefFloat, ir.DefRefKind:
		return false
	case ir.DefExtended:
		return def.Bits > w
	case ir.DefThrough:
		// AND with a register known non-negative over its full width yields
		// a sign-extended (indeed zero-extended) result: the paper's Case 1
		// example for AnalyzeDEF.
		if ins.Op == ir.OpAnd && ins.W == ir.W32 && w >= 32 {
			for k := 0; k < 2; k++ {
				if e.operandFullNonNeg(ins, k) {
					return false
				}
			}
		}
		// A narrowing copy (the (int)(long) cast) whose source register
		// holds its exact value (extended from 64 — trivially true for long
		// values, provable for others) with a range inside the 32-bit band
		// is already sign-extended.
		if ins.Op == ir.OpMov && w >= 32 {
			if r, ok := e.vr.OfDefRange(ins); ok && !r.IsBottom() &&
				r.Within(math.MinInt32, math.MaxInt32) &&
				(r.Lo > math.MinInt32 || r.Hi < math.MaxInt32) {
				ok64 := true
				for _, dd := range e.ch.UD(ins, 0) {
					if e.analyzeDEF(dd, 64) {
						ok64 = false
						break
					}
				}
				if ok64 && len(e.ch.UD(ins, 0)) > 0 {
					return false
				}
			}
		}
		// Case 2: extended iff every integer source is.
		for op := 0; op < ins.NumUses(); op++ {
			for _, dd := range e.ch.UD(ins, op) {
				if e.analyzeDEF(dd, w) {
					return true
				}
			}
		}
		return false
	default: // DefDirty
		// A zero-upper-half register whose 32-bit value is known
		// non-negative is sign-extended (e.g. unsigned bit-field extracts).
		if w >= 32 && def.U32Z {
			if r, ok := e.vr.OfDefRange(ins); ok && r.NonNeg() {
				return false
			}
		}
		// Exact narrow arithmetic on extended operands is extended: when the
		// value range analysis proves the result cannot wrap (a strictly
		// interior interval) and every operand register holds a genuine
		// sign-extended value, the 64-bit operation computes the exact
		// mathematical result, which fits — the paper's AnalyzeDEF Case 1
		// backed by range analysis [4, 7].
		if w >= 32 && ins.W == ir.W32 {
			switch ins.Op {
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpNeg, ir.OpShl:
				n := ins.NumUses()
				if ins.Op == ir.OpShl {
					n = 1 // the shift amount's upper bits are masked
				}
				r, ok := e.vr.OfDefRange(ins)
				if ok && !r.IsBottom() &&
					(r.Lo > math.MinInt32 || r.Hi < math.MaxInt32) &&
					r.Within(math.MinInt32, math.MaxInt32) &&
					e.sourcesExtended(ins, n, 32) {
					return false
				}
			}
		}
		// A 32-bit sum or difference of registers that each hold a value
		// sign-extended from at most 31 bits cannot leave the 32-bit band,
		// so the 64-bit operation yields the exact, extended result. Unlike
		// the range rule above, this reads only extension widths, so it
		// still holds after an extension that supplied a range is removed:
		// an or.8 of extended values is extended from 8 bits but has no
		// range of its own, and without this rule a second Eliminate could
		// not re-prove an add.32 over it (the fixpoint property).
		if w >= 32 && ins.W == ir.W32 && (ins.Op == ir.OpAdd || ins.Op == ir.OpSub) &&
			e.sourcesExtended(ins, 2, 31) {
			return false
		}
		return true
	}
}

// sourcesExtended reports whether each of the first n sources of ins has at
// least one reaching definition and all of them produce values sign-extended
// from w bits.
func (e *eliminator) sourcesExtended(ins *ir.Instr, n int, w uint8) bool {
	for op := 0; op < n; op++ {
		defs := e.ch.UD(ins, op)
		if len(defs) == 0 {
			return false
		}
		for _, dd := range defs {
			if e.analyzeDEF(dd, w) {
				return false
			}
		}
	}
	return true
}

// operandFullNonNeg reports whether operand k of ins is known, over the full
// 64-bit register, to lie in [0, 0x7fffffff]: upper half zero and semantic
// value non-negative.
func (e *eliminator) operandFullNonNeg(ins *ir.Instr, k int) bool {
	if !e.vr.OfOperandAt(ins, k).NonNeg() {
		return false
	}
	for _, d := range e.ch.UD(ins, k) {
		if !e.analyzeU32Z(d) {
			return false
		}
	}
	return len(e.ch.UD(ins, k)) > 0
}

// analyzeU32Z reports whether the definition d leaves the register's upper
// 32 bits zero (the "initialized to zero" premise of Theorems 1 and 3).
func (e *eliminator) analyzeU32Z(d dataflow.DefSite) bool {
	if !e.spend() {
		return false // out of budget: conservatively unknown
	}
	if d.IsParam() {
		return false
	}
	ins := d.Instr
	if v := e.u32Flags[ins]; v>>2 == e.gen {
		switch int8(v & 3) {
		case qInProgress, qTrue:
			return true // in-progress: optimistic on cycles
		case qFalse:
			return false
		}
	}
	e.u32Flags[ins] = e.gen<<2 | int64(qInProgress)
	ok := e.analyzeU32Z1(ins)
	if ok {
		e.u32Flags[ins] = e.gen<<2 | int64(qTrue)
	} else {
		e.u32Flags[ins] = e.gen<<2 | int64(qFalse)
	}
	return ok
}

func (e *eliminator) analyzeU32Z1(ins *ir.Instr) bool {
	if ins == e.candidate {
		// Transparent: look through to the candidate's source.
		defs := e.ch.UD(ins, 0)
		if len(defs) == 0 {
			return false
		}
		for _, dd := range defs {
			if !e.analyzeU32Z(dd) {
				return false
			}
		}
		return true
	}

	def := ir.DefOf(ins, e.cfg.Machine)
	if def.U32Z {
		return true
	}
	// A sign-extended register with a non-negative 32-bit value has a zero
	// upper half.
	if def.Class == ir.DefExtended && def.Bits <= 32 {
		if r, ok := e.vr.OfDefRange(ins); ok && r.NonNeg() {
			return true
		}
		return false
	}
	switch ins.Op {
	case ir.OpAnd:
		if ins.W != ir.W32 {
			return false
		}
		// x & y has a zero upper half if either side does.
		for k := 0; k < 2; k++ {
			all := len(e.ch.UD(ins, k)) > 0
			for _, dd := range e.ch.UD(ins, k) {
				if !e.analyzeU32Z(dd) {
					all = false
					break
				}
			}
			if all {
				return true
			}
		}
		return false
	case ir.OpMov, ir.OpOr, ir.OpXor:
		// Zero upper halves propagate through copies and (for or/xor) when
		// every operand has one.
		if ins.Op != ir.OpMov && ins.W != ir.W32 {
			return false
		}
		for op := 0; op < ins.NumUses(); op++ {
			if len(e.ch.UD(ins, op)) == 0 {
				return false
			}
			for _, dd := range e.ch.UD(ins, op) {
				if !e.analyzeU32Z(dd) {
					return false
				}
			}
		}
		return true
	}
	return false
}

// analyzeARRAY is the paper's AnalyzeARRAY (section 3): the extension's value
// reaches the effective-address computation of an array access (directly, or
// as an operand of the one-level subscript expression i+j / i-j the theorems
// cover). The extension can be removed if, in the post-removal world, every
// definition of the *subscript* satisfies one of Theorems 1-4 or is itself
// sign-extended. The language specification supplies the LS(e) predicate: a
// negative subscript always traps, and array lengths never exceed maxlen.
func (e *eliminator) analyzeARRAY(ext *ir.Instr, access *ir.Instr) bool {
	// Both OpArrLoad and OpArrStore carry the index in Srcs[1].
	defs := e.ch.UD(access, 1)
	if len(defs) == 0 {
		return true
	}
	for _, d := range defs {
		if !e.theoremHolds(d, uint8(ext.W)) {
			return true
		}
	}
	return false
}

// theoremHolds checks one definition of the subscript against Theorems 1-4.
func (e *eliminator) theoremHolds(d dataflow.DefSite, w uint8) bool {
	if !e.spend() {
		return false // out of budget: conservatively no theorem applies
	}
	if !d.IsParam() {
		if v := e.arrFlags[d.Instr]; v>>2 == e.gen {
			switch int8(v & 3) {
			case qInProgress, qTrue:
				return true // the paper's ARRAY flag: optimistic on cycles
			case qFalse:
				return false
			}
		}
		e.arrFlags[d.Instr] = e.gen<<2 | int64(qInProgress)
		ok := e.theoremHolds1(d, w)
		if ok {
			e.arrFlags[d.Instr] = e.gen<<2 | int64(qTrue)
		} else {
			e.arrFlags[d.Instr] = e.gen<<2 | int64(qFalse)
		}
		return ok
	}
	return e.theoremHolds1(d, w)
}

func (e *eliminator) theoremHolds1(d dataflow.DefSite, w uint8) bool {
	// The candidate extension is transparent: the subscript is really
	// defined by whatever feeds it (this is the paper's "all the
	// instructions that define the source operand of the given sign
	// extension").
	if !d.IsParam() && d.Instr == e.candidate {
		defs := e.ch.UD(d.Instr, 0)
		if len(defs) == 0 {
			return false
		}
		for _, dd := range defs {
			if !e.theoremHolds(dd, w) {
				return false
			}
		}
		return true
	}
	// Already sign-extended sources need no theorem (the general UD case).
	if !e.analyzeDEF(d, w) {
		return true
	}
	if d.IsParam() {
		return false
	}
	ins := d.Instr

	// Theorem 1: upper 32 bits zero + LS(i) from the language.
	if e.analyzeU32Z(d) {
		return true
	}

	switch ins.Op {
	case ir.OpMov:
		// A copy preserves the subscript value: the theorems apply to
		// whatever defines the copied register.
		defs := e.ch.UD(ins, 0)
		if len(defs) == 0 {
			return false
		}
		for _, dd := range defs {
			if !e.theoremHolds(dd, w) {
				return false
			}
		}
		return true
	case ir.OpAdd:
		if ins.W != ir.W32 {
			return false
		}
		return e.sumTheorems(ins, e.vr.OfOperandAt(ins, 0), e.vr.OfOperandAt(ins, 1), false)
	case ir.OpSub:
		if ins.W != ir.W32 {
			return false
		}
		rx := e.vr.OfOperandAt(ins, 0)
		ry := e.vr.OfOperandAt(ins, 1)
		// Theorem 3: x has a zero upper half and 0 <= y <= 0x7fffffff.
		if ry.NonNeg() && e.allDefsU32Z(ins, 0) {
			return true
		}
		// Theorems 2/4 applied to i-j by ranging over -j.
		return e.sumTheorems(ins, rx, negRange(ry), true)
	}
	return false
}

// sumTheorems checks Theorems 2 and 4 for a subscript of the form x+y (or
// x-y when ryIsNegated). Both operands must already be sign-extended; then
// one operand non-negative (Theorem 2) or, with the maximum array length
// bounded by maxlen, one operand >= maxlen-1-0x7fffffff (Theorem 4) suffices.
func (e *eliminator) sumTheorems(ins *ir.Instr, rx, ry vrange.Range, ryIsNegated bool) bool {
	if !e.allDefsExtended(ins, 0, 32) || !e.allDefsExtended(ins, 1, 32) {
		return false
	}
	// Theorem 2.
	if rx.NonNeg() || ry.NonNeg() {
		return true
	}
	// Theorem 4: (maxlen-1) - 0x7fffffff <= i or j <= 0x7fffffff. With
	// Java's maxlen = 0x7fffffff the bound is -1, which covers count-down
	// loops (i + (-1)).
	lo := (e.maxLen - 1) - math.MaxInt32
	if rx.Within(lo, math.MaxInt32) || ry.Within(lo, math.MaxInt32) {
		return true
	}
	return false
}

func (e *eliminator) allDefsExtended(ins *ir.Instr, op int, w uint8) bool {
	defs := e.ch.UD(ins, op)
	if len(defs) == 0 {
		return false
	}
	for _, d := range defs {
		if e.analyzeDEF(d, w) {
			return false
		}
	}
	return true
}

func (e *eliminator) allDefsU32Z(ins *ir.Instr, op int) bool {
	defs := e.ch.UD(ins, op)
	if len(defs) == 0 {
		return false
	}
	for _, d := range defs {
		if !e.analyzeU32Z(d) {
			return false
		}
	}
	return true
}

func negRange(r vrange.Range) vrange.Range {
	if r.IsBottom() {
		return r
	}
	if r.Lo == math.MinInt64 {
		return vrange.Full64()
	}
	return vrange.Range{Lo: -r.Hi, Hi: -r.Lo}
}
