// Bytecode compilation: flattening an ir.Func into the segment-accounted code
// array of a bcFunc, the Code handle that holds a program's bytecode, plus
// the per-run bcState plumbing on machine.
package interp

import (
	"unsafe"

	"signext/internal/ir"
	"signext/internal/profile"
)

const minInt64 = -1 << 63

// compileBC flattens fn, or returns nil when the function cannot run as
// bytecode: a terminator anywhere but block-last position (the walker keeps
// executing the rest of a block after a mid-block jump; replicating that in
// flat code is not worth it), or an instruction or block ID that is out of
// range or repeated, which the ID-indexed tables below cannot hold. Such
// functions stay on the walker.
func compileBC(prog *ir.Program, fn *ir.Func) *bcFunc {
	// One backing array holds the three ID-indexed tables: origIdx and aux
	// by Instr.ID, blockStart by Block.ID. aux is a branch's dense counter
	// index or a call's callee index; no instruction is both. -1 marks an
	// ID not seen yet.
	nI, nB := fn.NumInstrIDs(), fn.NumBlockIDs()
	idx := make([]int32, 2*nI+nB)
	for i := range idx {
		idx[i] = -1
	}
	origIdx, aux, blockStart := idx[:nI], idx[nI:2*nI], idx[2*nI:]

	// First pass: validate, number the instructions and size every array.
	var nInstr, nBr, nCall, nExt, nSeg, nPatch int
	for _, b := range fn.Blocks {
		if b.ID < 0 || b.ID >= nB || blockStart[b.ID] != -1 {
			return nil
		}
		blockStart[b.ID] = 0 // seen; the fast-code offset is set below
		for i, ins := range b.Instrs {
			if ins.IsTerminator() && i != len(b.Instrs)-1 {
				return nil
			}
			if ins.ID < 0 || ins.ID >= nI || origIdx[ins.ID] != -1 {
				return nil
			}
			origIdx[ins.ID] = int32(nInstr)
			nInstr++
			switch ins.Op {
			case ir.OpBr, ir.OpFBr:
				aux[ins.ID] = int32(nBr)
				nBr++
				nPatch += 2
			case ir.OpJmp:
				nPatch++
			case ir.OpCall:
				aux[ins.ID] = int32(nCall)
				nCall++
				nSeg++
			case ir.OpExt:
				nExt++
			}
		}
		if n := len(b.Instrs); n > 0 && b.Instrs[n-1].Op != ir.OpCall {
			nSeg++ // the segment after the block's last call
		}
	}

	bf := &bcFunc{
		fn:       fn,
		origs:    make([]*ir.Instr, 0, nInstr),
		fast:     make([]bcIns, 0, nInstr+nSeg+len(fn.Blocks)),
		segs:     make([]bcSeg, 0, nSeg),
		callees:  make([]*ir.Func, 0, nCall),
		argLists: make([][]ir.Reg, 0, nCall),
		names:    make([]string, 0, nCall),
		brIDs:    make([]int, 0, nBr),
	}
	for _, b := range fn.Blocks {
		for _, ins := range b.Instrs {
			bf.origs = append(bf.origs, ins)
			switch ins.Op {
			case ir.OpBr, ir.OpFBr:
				bf.brIDs = append(bf.brIDs, ins.ID)
			case ir.OpCall:
				bf.callees = append(bf.callees, prog.Func(ins.Callee))
				bf.argLists = append(bf.argLists, ins.Args)
				bf.names = append(bf.names, ins.Callee)
			}
		}
	}

	// Fast array: per block, segment heads + code, then a fell-through
	// token when the block has no terminator. Every segment's extension
	// counts are carved from one array sized by the function's extensions.
	type patch struct {
		pc    int32
		blk   *ir.Block
		taken bool
	}
	patches := make([]patch, 0, nPatch)
	exts := make([]extCount, 0, nExt)
	for _, b := range fn.Blocks {
		blockStart[b.ID] = int32(len(bf.fast))
		instrs := b.Instrs
		for segStart := 0; segStart < len(instrs); {
			segEnd := segStart
			for segEnd < len(instrs) && instrs[segEnd].Op != ir.OpCall {
				segEnd++
			}
			if segEnd < len(instrs) {
				segEnd++ // the call ends its segment, inclusive
			}
			seg := bcSeg{
				steps:     int64(segEnd - segStart),
				origStart: origIdx[instrs[segStart].ID],
				origEnd:   origIdx[instrs[segEnd-1].ID] + 1,
			}
			first := len(exts)
			for _, ins := range instrs[segStart:segEnd] {
				if ins.Op == ir.OpExt {
					found := false
					for j := first; j < len(exts); j++ {
						if exts[j].w == ins.W {
							exts[j].n++
							found = true
							break
						}
					}
					if !found {
						exts = append(exts, extCount{w: ins.W, n: 1})
					}
				}
			}
			if len(exts) > first {
				seg.exts = exts[first:len(exts):len(exts)]
			}
			segID := int32(len(bf.segs))
			bf.segs = append(bf.segs, seg)
			bf.fast = append(bf.fast, bcIns{h: hSeg, tok: tokSeg, t0: segID})

			for _, ins := range instrs[segStart:segEnd] {
				pc := int32(len(bf.fast))
				bf.fast = append(bf.fast, encodeOne(ins, origIdx[ins.ID], aux[ins.ID]))
				switch ins.Op {
				case ir.OpBr, ir.OpFBr:
					patches = append(patches,
						patch{pc: pc, blk: b.Succs[0], taken: true},
						patch{pc: pc, blk: b.Succs[1], taken: false})
				case ir.OpJmp:
					patches = append(patches, patch{pc: pc, blk: b.Succs[0], taken: true})
				}
			}
			segStart = segEnd
		}
		if b.Term() == nil {
			bf.fast = append(bf.fast, bcIns{h: hFellThrough, tok: tokFellThrough, imm: int64(b.ID)})
		}
	}
	for _, p := range patches {
		id := p.blk.ID
		if id < 0 || id >= nB || blockStart[id] < 0 {
			return nil // a successor outside the function
		}
		if p.taken {
			bf.fast[p.pc].t0 = blockStart[id]
		} else {
			bf.fast[p.pc].t1 = blockStart[id]
		}
	}
	return bf
}

// encodeOne returns the encoding of ins. Branch targets are left for the
// caller to patch. aux is the dense branch-counter index of a branch, the
// callee index of a call, and unused otherwise.
func encodeOne(ins *ir.Instr, orig, aux int32) bcIns {
	in := bcIns{w: ins.W, cond: ins.Cond, fl: ins.Float, dst: ins.Dst,
		a: ins.Srcs[0], b: ins.Srcs[1], c: ins.Srcs[2], orig: orig}
	switch ins.Op {
	case ir.OpConst:
		in.h, in.tok, in.imm = hConst, tokConst, ins.Const
	case ir.OpFConst:
		in.h, in.tok, in.fimm = hFConst, tokFConst, ins.F
	case ir.OpMov:
		in.h, in.tok = hMov, tokMov
	case ir.OpFMov:
		in.h, in.tok = hFMov, tokFMov
	case ir.OpAdd:
		in.h, in.tok = hAdd, tokAdd
	case ir.OpSub:
		in.h, in.tok = hSub, tokSub
	case ir.OpMul:
		in.h, in.tok = hMul, tokMul
	case ir.OpDiv:
		in.h, in.tok = hDiv, tokDiv
	case ir.OpRem:
		in.h, in.tok = hRem, tokRem
	case ir.OpAnd:
		in.h, in.tok = hAnd, tokAnd
	case ir.OpOr:
		in.h, in.tok = hOr, tokOr
	case ir.OpXor:
		in.h, in.tok = hXor, tokXor
	case ir.OpNot:
		in.h, in.tok = hNot, tokNot
	case ir.OpNeg:
		in.h, in.tok = hNeg, tokNeg
	case ir.OpShl:
		in.h, in.tok = hShl, tokShl
	case ir.OpAShr:
		in.h, in.tok = hAShr, tokAShr
	case ir.OpLShr:
		in.h, in.tok = hLShr, tokLShr
	case ir.OpExt:
		in.h, in.tok = hExt, tokExt
	case ir.OpZext:
		in.h, in.tok = hZext, tokZext
	case ir.OpExtDummy:
		in.h, in.tok = hExtDummy, tokExtDummy
	case ir.OpI2D, ir.OpL2D:
		in.h, in.tok = hI2D, tokI2D
	case ir.OpD2I:
		in.h, in.tok = hD2I, tokD2I
	case ir.OpD2L:
		in.h, in.tok = hD2L, tokD2L
	case ir.OpFAdd:
		in.h, in.tok = hFAdd, tokFAdd
	case ir.OpFSub:
		in.h, in.tok = hFSub, tokFSub
	case ir.OpFMul:
		in.h, in.tok = hFMul, tokFMul
	case ir.OpFDiv:
		in.h, in.tok = hFDiv, tokFDiv
	case ir.OpFNeg:
		in.h, in.tok = hFNeg, tokFNeg
	case ir.OpFCall:
		in.h, in.tok = hFCall, tokFCall
	case ir.OpCall:
		in.h, in.tok, in.t0 = hCall, tokCall, aux
	case ir.OpRet:
		in.h, in.tok = hRet, tokRet
		if ins.NSrcs != 1 {
			in.a = ir.NoReg
		}
	case ir.OpLoadG:
		in.h, in.tok, in.imm = hLoadG, tokLoadG, ins.Const
	case ir.OpStoreG:
		in.h, in.tok, in.imm = hStoreG, tokStoreG, ins.Const
	case ir.OpNewArr:
		in.h, in.tok = hNewArr, tokNewArr
	case ir.OpArrLoad:
		in.h, in.tok = hArrLoad, tokArrLoad
	case ir.OpArrStore:
		in.h, in.tok = hArrStore, tokArrStore
	case ir.OpArrLen:
		in.h, in.tok = hArrLen, tokArrLen
	case ir.OpBr:
		in.h, in.tok, in.x, in.y, in.prof = hBr, tokBr, ins.Srcs[0], ins.Srcs[1], aux
	case ir.OpFBr:
		in.h, in.tok, in.x, in.y, in.prof = hFBr, tokFBr, ins.Srcs[0], ins.Srcs[1], aux
	case ir.OpJmp:
		in.h, in.tok = hJmp, tokJmp
	case ir.OpTrap:
		in.h, in.tok = hTrap, tokTrap
	case ir.OpPrint:
		in.h, in.tok = hPrint, tokPrint
	case ir.OpFPrint:
		in.h, in.tok = hFPrint, tokFPrint
	default:
		in.h, in.tok = hBad, tokBad
	}
	return in
}

// ---------------------------------------------------------------------------
// Code handles, per-run state, pools.

// Code is a program's bytecode. NewCode flattens every function once; after
// that the handle is never written, so any number of concurrent runs may
// share it. What a run changes — cost tables, branch counters, segment
// accounting — lives in that run's machine. Run uses an empty handle, whose
// functions compile on first use for that run alone.
type Code struct {
	prog  *ir.Program
	funcs map[*ir.Func]*bcFunc // nil value: irregular, runs on the walker
}

// NewCode compiles the bytecode of every function in prog. prog must not
// change while the handle is in use.
func NewCode(prog *ir.Program) *Code {
	c := &Code{prog: prog, funcs: make(map[*ir.Func]*bcFunc, len(prog.Funcs))}
	for _, fn := range prog.Funcs {
		c.funcs[fn] = compileBC(prog, fn)
	}
	return c
}

// Run executes the handle's program exactly as the package-level Run does.
func (c *Code) Run(entry string, opt Options) (*Result, error) {
	return runCode(c, entry, opt)
}

// Bytes estimates the handle's resident size, for callers that charge it
// against a memory bound.
func (c *Code) Bytes() int64 {
	const ins = int64(unsafe.Sizeof(bcIns{}))
	n := int64(64)
	for _, bf := range c.funcs {
		n += 64
		if bf == nil {
			continue
		}
		n += ins * int64(len(bf.fast))
		n += 48*int64(len(bf.segs)) + 8*int64(len(bf.origs)+len(bf.brIDs))
		n += 48 * int64(len(bf.callees))
	}
	return n
}

// funcCode returns fn's bytecode, nil for an irregular function: the
// handle's copy when it has one, else a fresh compile that the caller keeps
// for its run. This is the one place bytecode is built from.
func (c *Code) funcCode(fn *ir.Func) *bcFunc {
	if bf, ok := c.funcs[fn]; ok {
		return bf
	}
	return compileBC(c.prog, fn)
}

// bcFor returns fn's threaded state, creating it on first use, or nil when
// the run uses the walker (switch dispatch, per-instruction hooks, or an
// irregular function).
func (m *machine) bcFor(fn *ir.Func) *bcState {
	if !m.threaded {
		return nil
	}
	st, ok := m.bc[fn]
	if ok {
		return st
	}
	if bf := m.code.funcCode(fn); bf != nil {
		st = m.newBCState(bf)
	}
	if m.bc == nil {
		m.bc = map[*ir.Func]*bcState{}
	}
	m.bc[fn] = st
	return st
}

// newBCState evaluates the run's cost model once per instruction (Options.
// Cost must be pure: segment accounting sums it ahead of execution order).
func (m *machine) newBCState(bf *bcFunc) *bcState {
	st := &bcState{bf: bf}
	if m.opt.Cost != nil {
		st.cost = make([]int64, len(bf.origs))
		for k, ins := range bf.origs {
			st.cost[k] = m.opt.Cost(ins)
		}
		st.segCost = make([]int64, len(bf.segs))
		for si := range bf.segs {
			seg := &bf.segs[si]
			sum := int64(0)
			for k := seg.origStart; k < seg.origEnd; k++ {
				sum += st.cost[k]
			}
			st.segCost[si] = sum
		}
	}
	return st
}

// flushBCProfiles materializes the dense counters into Result.Profile with
// the walker's exact shape: every function with a profiled entry gets a
// FuncProfile, and branch counters exist only for branches that executed.
func (m *machine) flushBCProfiles() {
	for fn, st := range m.bc {
		if st == nil || st.calls == 0 {
			continue
		}
		fp := &profile.FuncProfile{Calls: st.calls, Branches: make(map[int]profile.Counts, len(st.prof))}
		for bi, c := range st.prof {
			if c != [2]int64{} {
				fp.Branches[st.bf.brIDs[bi]] = profile.Counts{Taken: c[0], Fall: c[1]}
			}
		}
		m.res.Profile[fn.Name] = fp
	}
}

// acquireRegs returns a zeroed register file, reusing a pooled backing array
// when one is large enough.
func (m *machine) acquireRegs(n int) []slot {
	if k := len(m.regPool); k > 0 {
		s := m.regPool[k-1]
		if cap(s) >= n {
			m.regPool = m.regPool[:k-1]
			s = s[:n]
			clear(s)
			return s
		}
	}
	return make([]slot, n)
}

func (m *machine) releaseRegs(s []slot) {
	m.regPool = append(m.regPool, s)
}

func (m *machine) acquireFrame() *bcFrame {
	if k := len(m.framePool); k > 0 {
		fr := m.framePool[k-1]
		m.framePool = m.framePool[:k-1]
		*fr = bcFrame{}
		return fr
	}
	return new(bcFrame)
}

func (m *machine) releaseFrame(fr *bcFrame) {
	fr.regs = nil
	fr.st = nil
	fr.prof = nil
	fr.err = nil
	m.framePool = append(m.framePool, fr)
}
