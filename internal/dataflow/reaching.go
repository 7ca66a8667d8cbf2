package dataflow

import (
	"signext/internal/cfg"
	"signext/internal/ir"
)

// DefSite identifies one definition: an instruction that writes a register,
// or a function parameter (Instr == nil, Param >= 0).
type DefSite struct {
	Instr *ir.Instr
	Param int // parameter index when Instr == nil
	Reg   ir.Reg
}

// IsParam reports whether the definition is an incoming parameter.
func (d DefSite) IsParam() bool { return d.Instr == nil }

// Reaching holds the reaching-definitions solution for a function. Every
// table is dense: definitions are numbered parameters first, then in layout
// order; per-instruction tables are indexed by Instr.ID and per-block tables
// by the block's position in Fn.Blocks.
//
// The block sets range over the definitions of global registers only: those
// read somewhere before any definition in the same block. Every read of any
// other register is fed by the latest definition earlier in its own block,
// so its definitions never need to be tracked across blocks. For a MiniJava
// function that leaves out most expression temporaries.
type Reaching struct {
	Fn      *ir.Func
	Defs    []DefSite // def number -> site
	DefNum  []int32   // Instr.ID -> def number, -1 if the instruction defines nothing
	ByReg   [][]int32 // register -> def numbers writing it, ascending
	Bit     []int32   // def number -> index in the block sets, -1 if its register is not global
	In, Out []BitSet  // block position -> definitions reaching its entry/exit, by Bit

	pos blockIndex
}

// blockIndex maps Block.ID to the block's position in Func.Blocks.
type blockIndex []int32

func newBlockIndex(fn *ir.Func) blockIndex {
	pos := make(blockIndex, fn.NumBlockIDs())
	for k, b := range fn.Blocks {
		pos[b.ID] = int32(k)
	}
	return pos
}

// carve splits one backing allocation into n bitsets of the given word
// count, each capped so that no set can grow into its neighbour.
func carve(n, words int) []BitSet {
	all := make(BitSet, n*words)
	sets := make([]BitSet, n)
	for k := range sets {
		sets[k] = all[k*words : (k+1)*words : (k+1)*words]
	}
	return sets
}

// globalRegs returns the registers read somewhere before any definition in
// the same block. Only these can be live, or have definitions reaching, at a
// block boundary. seen is scratch of one element per register; it is left
// holding the position+1 of the last block that defined each register.
func globalRegs(fn *ir.Func, seen []int32) BitSet {
	clear(seen)
	global := NewBitSet(fn.NReg)
	for k, b := range fn.Blocks {
		for _, ins := range b.Instrs {
			for op := 0; op < ins.NumUses(); op++ {
				if reg := ins.UseAt(op); seen[reg] != int32(k+1) {
					global.Set(int(reg))
				}
			}
			if ins.HasDst() {
				seen[ins.Dst] = int32(k + 1)
			}
		}
	}
	return global
}

// Index returns the position of b in Fn.Blocks, the index of its In and Out
// sets.
func (r *Reaching) Index(b *ir.Block) int { return int(r.pos[b.ID]) }

// ComputeReaching solves reaching definitions over fn. Parameters act as
// definitions at function entry.
func ComputeReaching(fn *ir.Func, info *cfg.Info) *Reaching {
	np := len(fn.Params)
	nd := np
	regDefs := make([]int32, fn.NReg) // defs per register, then run offsets
	for p := range fn.Params {
		regDefs[p]++
	}
	for _, b := range fn.Blocks {
		for _, ins := range b.Instrs {
			if ins.HasDst() {
				nd++
				regDefs[ins.Dst]++
			}
		}
	}
	r := &Reaching{
		Fn:     fn,
		Defs:   make([]DefSite, 0, nd),
		DefNum: make([]int32, fn.NumInstrIDs()),
		ByReg:  make([][]int32, fn.NReg),
		pos:    newBlockIndex(fn),
	}
	var off int32
	for reg, n := range regDefs {
		regDefs[reg] = off
		off += n
	}
	byReg := make([]int32, nd)
	fill := func(reg ir.Reg) {
		byReg[regDefs[reg]] = int32(len(r.Defs) - 1)
		regDefs[reg]++
	}
	for p := range fn.Params {
		r.Defs = append(r.Defs, DefSite{Param: p, Reg: ir.Reg(p)})
		fill(ir.Reg(p))
	}
	for k := range r.DefNum {
		r.DefNum[k] = -1
	}
	for _, b := range fn.Blocks {
		for _, ins := range b.Instrs {
			if ins.HasDst() {
				r.DefNum[ins.ID] = int32(len(r.Defs))
				r.Defs = append(r.Defs, DefSite{Instr: ins, Param: -1, Reg: ins.Dst})
				fill(ins.Dst)
			}
		}
	}
	// After filling, regDefs[reg] is the end of reg's run.
	var start int32
	for reg := range r.ByReg {
		end := regDefs[reg]
		r.ByReg[reg] = byReg[start:end:end]
		start = end
	}

	// The global registers' definitions get positions in the block sets.
	seen := regDefs
	global := globalRegs(fn, seen)
	r.Bit = make([]int32, nd)
	nbits := 0
	for dn, d := range r.Defs {
		r.Bit[dn] = -1
		if global.Has(int(d.Reg)) {
			r.Bit[dn] = int32(nbits)
			nbits++
		}
	}

	nb := len(fn.Blocks)
	sets := carve(4*nb+1, (nbits+63)/64)
	r.In, r.Out = sets[:nb:nb], sets[nb:2*nb:2*nb]
	gen, kill, tmp := sets[2*nb:3*nb], sets[3*nb:4*nb], sets[4*nb]
	for k, b := range fn.Blocks {
		// Walking backward, the first definition of a register met is the
		// one that leaves the block; it kills all the others.
		g, kl := gen[k], kill[k]
		for j := len(b.Instrs) - 1; j >= 0; j-- {
			ins := b.Instrs[j]
			if !ins.HasDst() || !global.Has(int(ins.Dst)) || seen[ins.Dst] == int32(-k-1) {
				continue
			}
			seen[ins.Dst] = int32(-k - 1)
			for _, other := range r.ByReg[ins.Dst] {
				kl.Set(int(r.Bit[other]))
			}
			bit := int(r.Bit[r.DefNum[ins.ID]])
			kl.Clear(bit)
			g.Set(bit)
		}
	}
	// Entry IN: the parameters.
	entry := fn.Entry()
	for p := 0; p < np; p++ {
		if bit := r.Bit[p]; bit >= 0 {
			r.In[0].Set(int(bit))
		}
	}

	changed := true
	for changed {
		changed = false
		for _, b := range info.RPO {
			k := r.Index(b)
			in := r.In[k]
			if b != entry {
				in.Reset()
				for _, p := range b.Preds {
					in.UnionWith(r.Out[r.Index(p)])
				}
			}
			tmp.CopyFrom(in)
			tmp.AndNotWith(kill[k])
			tmp.UnionWith(gen[k])
			if !tmp.Equal(r.Out[k]) {
				r.Out[k].CopyFrom(tmp)
				changed = true
			}
		}
	}
	return r
}

// EntryDefs appends to dst the definitions of reg reaching the entry of the
// block at position k, ascending by number.
func (r *Reaching) EntryDefs(dst []int32, k int, reg ir.Reg) []int32 {
	in := r.In[k]
	for _, dn := range r.ByReg[reg] {
		if bit := r.Bit[dn]; bit >= 0 && in.Has(int(bit)) {
			dst = append(dst, dn)
		}
	}
	return dst
}

// DefsAt returns the definition numbers of reg reaching ins: the latest
// definition earlier in its block, or else those reaching the block's entry.
func (r *Reaching) DefsAt(ins *ir.Instr, reg ir.Reg) []int {
	b := ins.Blk
	last := int32(-1)
	for _, x := range b.Instrs {
		if x == ins {
			break
		}
		if x.HasDst() && x.Dst == reg {
			last = r.DefNum[x.ID]
		}
	}
	if last >= 0 {
		return []int{int(last)}
	}
	var out []int
	for _, dn := range r.EntryDefs(nil, r.Index(b), reg) {
		out = append(out, int(dn))
	}
	return out
}
