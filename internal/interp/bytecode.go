// Token-threaded bytecode dispatch. The tree-walking interpreter in interp.go
// is the reference semantics; this file compiles each regular ir.Func into a
// flat code array whose instructions carry their handler as a function
// pointer (token threading), one code instruction per IR instruction.
//
// Bookkeeping is hoisted out of the instruction loop: a segment is a maximal
// run of instructions inside one block that contains no call except as its
// last instruction. A tokSeg pseudo-instruction at the head of each segment
// adds the whole segment's step count, cycle cost, and sign-extension counts
// up front, so plain handlers execute with zero per-step accounting. That
// optimistic accounting is exact whenever the segment runs to completion,
// which is every execution except two rare cases:
//
//   - a handler traps mid-segment (div-by-zero, bounds, dummy violation, ...):
//     the dispatch loop rolls the accounting back to the segment entry and
//     re-adds the executed prefix, reproducing the walker's totals exactly;
//   - the step limit would be hit inside the segment: tokSeg runs the
//     segment "carefully", accounting per instruction, which provably returns
//     ErrStepLimit (or an earlier trap) before reaching the segment's
//     terminator, at exactly the walker's step count.
//
// Profiles are kept in dense per-function counters (entries and branch
// outcomes of Mode32 frames) and materialized into Result.Profile when the
// run finishes.
//
// Functions with a terminator anywhere but block-last position (irregular
// after aggressive transforms) do not compile; callers fall back to the tree
// walker. Dispatch choice is per function, so mixed programs stay exact.
package interp

import (
	"fmt"
	"strconv"

	"signext/internal/ir"
)

// Dispatch selects the interpreter's dispatch strategy.
type Dispatch uint8

const (
	// DispatchAuto uses threaded dispatch unless an option requires
	// per-instruction hooks (Trace, OnDef), then falls back to the walker.
	DispatchAuto Dispatch = iota
	// DispatchSwitch forces the reference tree-walking interpreter.
	DispatchSwitch
)

type bcHandler func(fr *bcFrame, in *bcIns, pc int) int

// bcTok identifies the encoding for tests and debugging; behaviour lives in
// the handler pointer.
type bcTok uint8

const (
	tokSeg bcTok = iota
	tokConst
	tokFConst
	tokMov
	tokFMov
	tokAdd
	tokSub
	tokMul
	tokDiv
	tokRem
	tokAnd
	tokOr
	tokXor
	tokNot
	tokNeg
	tokShl
	tokAShr
	tokLShr
	tokExt
	tokZext
	tokExtDummy
	tokI2D
	tokL2D
	tokD2I
	tokD2L
	tokFAdd
	tokFSub
	tokFMul
	tokFDiv
	tokFNeg
	tokFCall
	tokCall
	tokRet
	tokLoadG
	tokStoreG
	tokNewArr
	tokArrLoad
	tokArrStore
	tokArrLen
	tokBr
	tokFBr
	tokJmp
	tokTrap
	tokPrint
	tokFPrint
	tokBad
	tokFellThrough
)

// bcIns is one flat-code instruction. Field use varies by token:
//
//	dst/a/b/c: register operands (c = the stored value of an astore)
//	x/y: branch compare operands
//	t0/t1: taken/fall-through targets; seg index (tokSeg); call index (tokCall)
//	imm: const value, global index, block ID (tokFellThrough)
//	orig: index into bcFunc.origs for error formatting and rollback
//	prof: dense branch-counter index
type bcIns struct {
	h    bcHandler
	tok  bcTok
	w    ir.Width
	cond ir.Cond
	fl   bool
	dst  ir.Reg
	a    ir.Reg
	b    ir.Reg
	c    ir.Reg
	x    ir.Reg
	y    ir.Reg
	t0   int32
	t1   int32
	orig int32
	prof int32
	imm  int64
	fimm float64
}

type extCount struct {
	w ir.Width
	n int64
}

// bcSeg is the accounting summary of one segment.
type bcSeg struct {
	steps     int64
	exts      []extCount
	origStart int32
	origEnd   int32 // exclusive
}

// bcFunc is the compiled form of one function. Runs only read it, so one
// bcFunc may serve many runs at once (see Code).
type bcFunc struct {
	fn       *ir.Func
	fast     []bcIns // code with tokSeg accounting heads
	segs     []bcSeg
	origs    []*ir.Instr
	callees  []*ir.Func // nil if unresolved at compile time
	argLists [][]ir.Reg
	names    []string // callee names (error messages for unresolved)
	brIDs    []int    // dense branch index -> instruction ID
}

// bcState is bcFunc plus per-run state that depends on Options.
type bcState struct {
	bf      *bcFunc
	cost    []int64    // per orig index; nil when Options.Cost is nil
	segCost []int64    // per segment
	prof    [][2]int64 // dense branch counters; nil until a profiled frame runs
	calls   int64      // profiled (Mode32 under Options.Profile) entries
}

// bcFrame is one threaded call frame. Pooled on the machine: it escapes into
// handler calls, so a fresh allocation per call would defeat the
// allocation-churn fix.
type bcFrame struct {
	m     *machine
	st    *bcState
	regs  []slot
	prof  [][2]int64 // st.prof in a profiled frame, else nil
	norm  bool       // Mode32: narrow defs normalize
	sload bool       // memory loads sign-extend (Mode32 or PPC64)

	segIdx     int32
	baseSteps  int64
	baseCycles int64

	ret      slot
	err      error
	trapOrig int32
	exact    bool // err's accounting is already exact; skip rollback
}

// trap records a mid-segment runtime error; the dispatch loop rolls the
// optimistic segment accounting back to this instruction.
func (fr *bcFrame) trap(in *bcIns, err error) int {
	fr.err = err
	fr.trapOrig = in.orig
	return -1
}

// evalBr evaluates a conditional branch with the walker's width semantics:
// 64-bit compares read full registers; narrow compares (cmp4) read only the
// low W bits, zero-extended for unsigned conditions, sign-extended otherwise.
func evalBr(cond ir.Cond, w ir.Width, x, y int64) bool {
	if w == ir.W64 {
		return cond.Eval(x, y)
	}
	switch cond {
	case ir.CondULT, ir.CondULE, ir.CondUGT, ir.CondUGE:
		return cond.Eval(w.ZeroExt(x), w.ZeroExt(y))
	}
	return cond.Eval(w.SignExt(x), w.SignExt(y))
}

// ---------------------------------------------------------------------------
// Execution

func (m *machine) execBC(st *bcState, fn *ir.Func, caller []slot, argRegs []ir.Reg) (slot, error) {
	regs := m.acquireRegs(fn.NReg)
	for k, r := range argRegs {
		regs[k] = caller[r]
	}
	fr := m.acquireFrame()
	fr.m = m
	fr.st = st
	fr.regs = regs
	fr.norm = m.mode == Mode32
	fr.sload = m.mode == Mode32 || m.opt.Machine == ir.PPC64
	if m.res.Profile != nil && fr.norm {
		if st.prof == nil {
			st.prof = make([][2]int64, len(st.bf.brIDs))
		}
		st.calls++
		fr.prof = st.prof
	}

	code := st.bf.fast
	pc := 0
	for pc >= 0 {
		in := &code[pc]
		pc = in.h(fr, in, pc)
	}
	ret, err := fr.ret, fr.err
	if err != nil && !fr.exact {
		m.bcRollback(fr)
	}
	m.releaseFrame(fr)
	m.releaseRegs(regs)
	return ret, err
}

// bcRollback undoes a segment's optimistic accounting after a mid-segment
// trap and re-adds the executed prefix, reproducing the walker's totals: the
// trapping instruction's step and cost are charged (the walker charges both
// before executing), its sign extension is not (OpExt never traps).
func (m *machine) bcRollback(fr *bcFrame) {
	st := fr.st
	seg := &st.bf.segs[fr.segIdx]
	k := fr.trapOrig
	m.res.Steps = fr.baseSteps + int64(k-seg.origStart) + 1
	if st.cost != nil {
		sum := int64(0)
		for i := seg.origStart; i <= k; i++ {
			sum += st.cost[i]
		}
		m.res.Cycles = fr.baseCycles + sum
	}
	for _, e := range seg.exts {
		m.res.Ext[e.w] -= e.n
	}
	for i := seg.origStart; i < k; i++ {
		if ins := st.bf.origs[i]; ins.Op == ir.OpExt {
			m.res.Ext[ins.W]++
		}
	}
}

func hSeg(fr *bcFrame, in *bcIns, pc int) int {
	m := fr.m
	seg := &fr.st.bf.segs[in.t0]
	if m.res.Steps+seg.steps > m.opt.MaxSteps {
		return fr.runCareful(seg, pc+1)
	}
	fr.segIdx = in.t0
	fr.baseSteps = m.res.Steps
	m.res.Steps += seg.steps
	if fr.st.cost != nil {
		fr.baseCycles = m.res.Cycles
		m.res.Cycles += fr.st.segCost[in.t0]
	}
	for _, e := range seg.exts {
		m.res.Ext[e.w] += e.n
	}
	return pc + 1
}

// runCareful executes the segment whose first instruction is at pc one
// instruction at a time with walker-order accounting (step, limit check,
// cost, execute). It is entered only when the step limit falls inside the
// segment, so it always returns ErrStepLimit (or an earlier trap) before
// reaching the segment's final instruction's effect: the limit check precedes
// execution, hence no terminator, call, or return ever runs here.
func (fr *bcFrame) runCareful(seg *bcSeg, pc int) int {
	m := fr.m
	fr.exact = true
	code := fr.st.bf.fast[pc:]
	for k := seg.origStart; k < seg.origEnd; k++ {
		in := &code[k-seg.origStart]
		m.res.Steps++
		if m.res.Steps > m.opt.MaxSteps {
			fr.err = ErrStepLimit
			return -1
		}
		if fr.st.cost != nil {
			m.res.Cycles += fr.st.cost[k]
		}
		if in.tok == tokExt {
			m.res.Ext[in.w]++
		}
		in.h(fr, in, pc+int(k-seg.origStart))
		if fr.err != nil {
			return -1
		}
	}
	// Unreachable when entered correctly; fail closed rather than continue
	// with skewed accounting.
	fr.err = ErrStepLimit
	return -1
}

// ---------------------------------------------------------------------------
// Handlers

func hConst(fr *bcFrame, in *bcIns, pc int) int {
	fr.regs[in.dst].i = in.imm
	return pc + 1
}

func hFConst(fr *bcFrame, in *bcIns, pc int) int {
	fr.regs[in.dst].f = in.fimm
	return pc + 1
}

func hMov(fr *bcFrame, in *bcIns, pc int) int {
	fr.regs[in.dst] = fr.regs[in.a]
	return pc + 1
}

func hFMov(fr *bcFrame, in *bcIns, pc int) int {
	fr.regs[in.dst].f = fr.regs[in.a].f
	return pc + 1
}

func hAdd(fr *bcFrame, in *bcIns, pc int) int {
	regs := fr.regs
	v := regs[in.a].i + regs[in.b].i
	if fr.norm && in.w != ir.W64 {
		v = in.w.SignExt(v)
	}
	regs[in.dst].i = v
	return pc + 1
}

func hSub(fr *bcFrame, in *bcIns, pc int) int {
	regs := fr.regs
	v := regs[in.a].i - regs[in.b].i
	if fr.norm && in.w != ir.W64 {
		v = in.w.SignExt(v)
	}
	regs[in.dst].i = v
	return pc + 1
}

func hMul(fr *bcFrame, in *bcIns, pc int) int {
	regs := fr.regs
	v := regs[in.a].i * regs[in.b].i
	if fr.norm && in.w != ir.W64 {
		v = in.w.SignExt(v)
	}
	regs[in.dst].i = v
	return pc + 1
}

func divRem(fr *bcFrame, in *bcIns, rem bool) (int64, bool) {
	regs := fr.regs
	x, y := regs[in.a].i, regs[in.b].i
	// Normalize the divisor by the operation width for every width: a narrow
	// divisor whose low bits are zero divides by zero no matter what its
	// dirty upper bits hold. (SignExt at W64 is the identity, so this also
	// covers the plain y == 0 case.)
	if in.w.SignExt(y) == 0 {
		return 0, false
	}
	var v int64
	if rem {
		if x == minInt64 && y == -1 {
			v = 0
		} else {
			v = x % y
		}
	} else {
		if x == minInt64 && y == -1 {
			v = minInt64
		} else {
			v = x / y
		}
	}
	if in.w != ir.W64 {
		v = in.w.SignExt(v)
	}
	return v, true
}

func hDiv(fr *bcFrame, in *bcIns, pc int) int {
	v, ok := divRem(fr, in, false)
	if !ok {
		return fr.trap(in, ErrDivZero)
	}
	fr.regs[in.dst].i = v
	return pc + 1
}

func hRem(fr *bcFrame, in *bcIns, pc int) int {
	v, ok := divRem(fr, in, true)
	if !ok {
		return fr.trap(in, ErrDivZero)
	}
	fr.regs[in.dst].i = v
	return pc + 1
}

func hAnd(fr *bcFrame, in *bcIns, pc int) int {
	regs := fr.regs
	v := regs[in.a].i & regs[in.b].i
	if fr.norm && in.w != ir.W64 {
		v = in.w.SignExt(v)
	}
	regs[in.dst].i = v
	return pc + 1
}

func hOr(fr *bcFrame, in *bcIns, pc int) int {
	regs := fr.regs
	v := regs[in.a].i | regs[in.b].i
	if fr.norm && in.w != ir.W64 {
		v = in.w.SignExt(v)
	}
	regs[in.dst].i = v
	return pc + 1
}

func hXor(fr *bcFrame, in *bcIns, pc int) int {
	regs := fr.regs
	v := regs[in.a].i ^ regs[in.b].i
	if fr.norm && in.w != ir.W64 {
		v = in.w.SignExt(v)
	}
	regs[in.dst].i = v
	return pc + 1
}

func hNot(fr *bcFrame, in *bcIns, pc int) int {
	v := ^fr.regs[in.a].i
	if fr.norm && in.w != ir.W64 {
		v = in.w.SignExt(v)
	}
	fr.regs[in.dst].i = v
	return pc + 1
}

func hNeg(fr *bcFrame, in *bcIns, pc int) int {
	v := -fr.regs[in.a].i
	if fr.norm && in.w != ir.W64 {
		v = in.w.SignExt(v)
	}
	fr.regs[in.dst].i = v
	return pc + 1
}

func hShl(fr *bcFrame, in *bcIns, pc int) int {
	regs := fr.regs
	n := uint(regs[in.b].i) & uint(in.w-1)
	v := regs[in.a].i << n
	if fr.norm && in.w != ir.W64 {
		v = in.w.SignExt(v)
	}
	regs[in.dst].i = v
	return pc + 1
}

func hAShr(fr *bcFrame, in *bcIns, pc int) int {
	regs := fr.regs
	x := regs[in.a].i
	n := uint(regs[in.b].i) & uint(in.w-1)
	if in.w == ir.W64 {
		regs[in.dst].i = x >> n
	} else {
		regs[in.dst].i = in.w.SignExt(x) >> n
	}
	return pc + 1
}

func hLShr(fr *bcFrame, in *bcIns, pc int) int {
	regs := fr.regs
	x := regs[in.a].i
	n := uint(regs[in.b].i) & uint(in.w-1)
	if in.w == ir.W64 {
		regs[in.dst].i = int64(uint64(x) >> n)
	} else {
		v := int64((uint64(x) & in.w.Mask()) >> n)
		if fr.norm {
			v = in.w.SignExt(v)
		}
		regs[in.dst].i = v
	}
	return pc + 1
}

func hExt(fr *bcFrame, in *bcIns, pc int) int {
	// The execution count lives in the segment totals (or the careful loop);
	// the handler must not bump Result.Ext.
	fr.regs[in.dst].i = in.w.SignExt(fr.regs[in.a].i)
	return pc + 1
}

func hZext(fr *bcFrame, in *bcIns, pc int) int {
	fr.regs[in.dst].i = in.w.ZeroExt(fr.regs[in.a].i)
	return pc + 1
}

func hExtDummy(fr *bcFrame, in *bcIns, pc int) int {
	v := fr.regs[in.a].i
	if fr.m.opt.CheckDummies && v != in.w.SignExt(v) {
		return fr.trap(in, fmt.Errorf("%w: %s holds %#x", ErrDummy, fr.st.bf.origs[in.orig], uint64(v)))
	}
	fr.regs[in.dst].i = v
	return pc + 1
}

func hI2D(fr *bcFrame, in *bcIns, pc int) int {
	fr.regs[in.dst].f = float64(fr.regs[in.a].i)
	return pc + 1
}

func hD2I(fr *bcFrame, in *bcIns, pc int) int {
	fr.regs[in.dst].i = d2i(fr.regs[in.a].f)
	return pc + 1
}

func hD2L(fr *bcFrame, in *bcIns, pc int) int {
	fr.regs[in.dst].i = d2l(fr.regs[in.a].f)
	return pc + 1
}

func hFAdd(fr *bcFrame, in *bcIns, pc int) int {
	fr.regs[in.dst].f = fr.regs[in.a].f + fr.regs[in.b].f
	return pc + 1
}

func hFSub(fr *bcFrame, in *bcIns, pc int) int {
	fr.regs[in.dst].f = fr.regs[in.a].f - fr.regs[in.b].f
	return pc + 1
}

func hFMul(fr *bcFrame, in *bcIns, pc int) int {
	fr.regs[in.dst].f = fr.regs[in.a].f * fr.regs[in.b].f
	return pc + 1
}

func hFDiv(fr *bcFrame, in *bcIns, pc int) int {
	fr.regs[in.dst].f = fr.regs[in.a].f / fr.regs[in.b].f
	return pc + 1
}

func hFNeg(fr *bcFrame, in *bcIns, pc int) int {
	fr.regs[in.dst].f = -fr.regs[in.a].f
	return pc + 1
}

func hFCall(fr *bcFrame, in *bcIns, pc int) int {
	v, err := fr.m.fbuiltin(fr.st.bf.origs[in.orig], fr.regs)
	if err != nil {
		return fr.trap(in, err)
	}
	fr.regs[in.dst].f = v
	return pc + 1
}

func hCall(fr *bcFrame, in *bcIns, pc int) int {
	bf := fr.st.bf
	callee := bf.callees[in.t0]
	if callee == nil {
		// The call is its segment's last instruction, so the optimistic
		// accounting (which charges the call's own step and cost, exactly as
		// the walker does before erroring) is already exact.
		fr.err = fmt.Errorf("%w: %s", ErrNoFunction, bf.names[in.t0])
		fr.exact = true
		return -1
	}
	rv, err := fr.m.call(callee, fr.regs, bf.argLists[in.t0])
	if err != nil {
		fr.err = err
		fr.exact = true
		return -1
	}
	if in.dst != ir.NoReg {
		fr.regs[in.dst] = rv
	}
	return pc + 1
}

func hRet(fr *bcFrame, in *bcIns, pc int) int {
	if in.a != ir.NoReg {
		fr.ret = fr.regs[in.a]
	}
	return -1
}

func hLoadG(fr *bcFrame, in *bcIns, pc int) int {
	g := fr.m.globals[in.imm]
	if in.fl {
		fr.regs[in.dst].f = g.f
	} else {
		fr.regs[in.dst].i = bcLoadExtend(fr, in.w, g.i)
	}
	return pc + 1
}

func bcLoadExtend(fr *bcFrame, w ir.Width, raw int64) int64 {
	if w == ir.W64 {
		return raw
	}
	if fr.sload {
		return w.SignExt(raw)
	}
	return w.ZeroExt(raw)
}

func hStoreG(fr *bcFrame, in *bcIns, pc int) int {
	if in.fl {
		fr.m.globals[in.imm].f = fr.regs[in.a].f
	} else {
		fr.m.globals[in.imm].i = int64(uint64(fr.regs[in.a].i) & in.w.Mask())
	}
	return pc + 1
}

func hNewArr(fr *bcFrame, in *bcIns, pc int) int {
	n := fr.regs[in.a].i
	if n < 0 || n > fr.m.maxLen {
		return fr.trap(in, fmt.Errorf("%w: %d", ErrNegSize, n))
	}
	if n > 1<<28 {
		return fr.trap(in, fmt.Errorf("interp: array too large for the host: %d", n))
	}
	a := &array{w: in.w, fl: in.fl}
	if in.fl {
		a.f = make([]float64, n)
	} else {
		a.i = make([]int64, n)
	}
	fr.regs[in.dst].a = a
	return pc + 1
}

// bcIndex mirrors machine.index with the frame's cached mode.
func (fr *bcFrame) bcIndex(a *array, idx int64) (int64, error) {
	if a == nil {
		return 0, ErrNilArray
	}
	n := int64(len(a.i))
	if a.fl {
		n = int64(len(a.f))
	}
	low := uint32(uint64(idx))
	if uint64(low) >= uint64(n) {
		return 0, fmt.Errorf("%w: index %d (low32 of %#x), length %d", ErrBounds, int32(low), uint64(idx), n)
	}
	if fr.norm {
		return int64(low), nil
	}
	if idx != int64(low) {
		return 0, fmt.Errorf("%w: register %#x, semantic index %d", ErrWildEA, uint64(idx), low)
	}
	return idx, nil
}

func hArrLoad(fr *bcFrame, in *bcIns, pc int) int {
	a := fr.regs[in.a].a
	k, err := fr.bcIndex(a, fr.regs[in.b].i)
	if err != nil {
		return fr.trap(in, err)
	}
	if a.fl {
		fr.regs[in.dst].f = a.f[k]
	} else {
		fr.regs[in.dst].i = bcLoadExtend(fr, in.w, a.i[k])
	}
	return pc + 1
}

func hArrStore(fr *bcFrame, in *bcIns, pc int) int {
	a := fr.regs[in.a].a
	k, err := fr.bcIndex(a, fr.regs[in.b].i)
	if err != nil {
		return fr.trap(in, err)
	}
	if a.fl {
		a.f[k] = fr.regs[in.c].f
	} else {
		a.i[k] = int64(uint64(fr.regs[in.c].i) & in.w.Mask())
	}
	return pc + 1
}

func hArrLen(fr *bcFrame, in *bcIns, pc int) int {
	a := fr.regs[in.a].a
	if a == nil {
		return fr.trap(in, ErrNilArray)
	}
	if a.fl {
		fr.regs[in.dst].i = int64(len(a.f))
	} else {
		fr.regs[in.dst].i = int64(len(a.i))
	}
	return pc + 1
}

func (fr *bcFrame) count(in *bcIns, taken bool) {
	if fr.prof != nil {
		if taken {
			fr.prof[in.prof][0]++
		} else {
			fr.prof[in.prof][1]++
		}
	}
}

func hBr(fr *bcFrame, in *bcIns, pc int) int {
	taken := evalBr(in.cond, in.w, fr.regs[in.x].i, fr.regs[in.y].i)
	fr.count(in, taken)
	if taken {
		return int(in.t0)
	}
	return int(in.t1)
}

func hFBr(fr *bcFrame, in *bcIns, pc int) int {
	taken := in.cond.EvalF(fr.regs[in.x].f, fr.regs[in.y].f)
	fr.count(in, taken)
	if taken {
		return int(in.t0)
	}
	return int(in.t1)
}

func hJmp(fr *bcFrame, in *bcIns, pc int) int {
	return int(in.t0)
}

func hTrap(fr *bcFrame, in *bcIns, pc int) int {
	// Trap is a terminator, hence segment-last: the optimistic accounting
	// already charged exactly its step and cost, as the walker does.
	fr.err = ErrTrap
	fr.exact = true
	return -1
}

func hPrint(fr *bcFrame, in *bcIns, pc int) int {
	m := fr.m
	m.out.WriteString(strconv.FormatInt(fr.regs[in.a].i, 10))
	m.out.WriteByte('\n')
	return pc + 1
}

func hFPrint(fr *bcFrame, in *bcIns, pc int) int {
	m := fr.m
	m.out.WriteString(strconv.FormatFloat(fr.regs[in.a].f, 'g', 12, 64))
	m.out.WriteByte('\n')
	return pc + 1
}

func hBad(fr *bcFrame, in *bcIns, pc int) int {
	return fr.trap(in, fmt.Errorf("interp: cannot execute %s", fr.st.bf.origs[in.orig]))
}

func hFellThrough(fr *bcFrame, in *bcIns, pc int) int {
	fr.err = fmt.Errorf("interp: block b%d fell through", in.imm)
	fr.exact = true
	return -1
}
