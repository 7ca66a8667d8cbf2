package dataflow

import (
	"signext/internal/cfg"
	"signext/internal/ir"
)

// Liveness holds per-block live-register sets, indexed by the block's
// position in Fn.Blocks. The sets range over global registers only (see
// Reaching): no other register is live at a block boundary.
type Liveness struct {
	Fn      *ir.Func
	In, Out []BitSet // live registers at block entry/exit, by bit
	Bit     []int32  // register -> index in the sets, -1 if it is not global
	Regs    []ir.Reg // index in the sets -> register

	pos blockIndex
}

// Index returns the position of b in Fn.Blocks, the index of its In and Out
// sets.
func (lv *Liveness) Index(b *ir.Block) int { return int(lv.pos[b.ID]) }

// LiveIn reports whether reg is live at the entry of b.
func (lv *Liveness) LiveIn(b *ir.Block, reg ir.Reg) bool {
	bit := lv.Bit[reg]
	return bit >= 0 && lv.In[lv.Index(b)].Has(int(bit))
}

// LiveOut sets dst, a set over all registers, to the registers live at the
// exit of the block at position k.
func (lv *Liveness) LiveOut(dst BitSet, k int) {
	dst.Reset()
	lv.Out[k].ForEach(func(i int) { dst.Set(int(lv.Regs[i])) })
}

// ComputeLiveness solves backward liveness over the registers of fn.
func ComputeLiveness(fn *ir.Func, info *cfg.Info) *Liveness {
	lv := &Liveness{Fn: fn, Bit: make([]int32, fn.NReg), pos: newBlockIndex(fn)}
	global := globalRegs(fn, lv.Bit)
	lv.Regs = make([]ir.Reg, 0, global.Count())
	for reg := range lv.Bit {
		lv.Bit[reg] = -1
		if global.Has(reg) {
			lv.Bit[reg] = int32(len(lv.Regs))
			lv.Regs = append(lv.Regs, ir.Reg(reg))
		}
	}
	nb := len(fn.Blocks)
	sets := carve(4*nb+1, (len(lv.Regs)+63)/64)
	lv.In, lv.Out = sets[:nb:nb], sets[nb:2*nb:2*nb]
	use, def, tmp := sets[2*nb:3*nb], sets[3*nb:4*nb], sets[4*nb]
	for k, b := range fn.Blocks {
		u, d := use[k], def[k]
		for _, ins := range b.Instrs {
			for op := 0; op < ins.NumUses(); op++ {
				if bit := int(lv.Bit[ins.UseAt(op)]); bit >= 0 && !d.Has(bit) {
					u.Set(bit)
				}
			}
			if ins.HasDst() {
				if bit := int(lv.Bit[ins.Dst]); bit >= 0 {
					d.Set(bit)
				}
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for j := len(info.RPO) - 1; j >= 0; j-- { // postorder
			k := lv.Index(info.RPO[j])
			out := lv.Out[k]
			out.Reset()
			for _, s := range info.RPO[j].Succs {
				out.UnionWith(lv.In[lv.Index(s)])
			}
			tmp.CopyFrom(out)
			tmp.AndNotWith(def[k])
			tmp.UnionWith(use[k])
			if !tmp.Equal(lv.In[k]) {
				lv.In[k].CopyFrom(tmp)
				changed = true
			}
		}
	}
	return lv
}

// LiveAfter reports whether reg is live immediately after ins.
func (lv *Liveness) LiveAfter(ins *ir.Instr, reg ir.Reg) bool {
	b := ins.Blk
	idx := b.IndexOf(ins)
	for k := idx + 1; k < len(b.Instrs); k++ {
		x := b.Instrs[k]
		for op := 0; op < x.NumUses(); op++ {
			if x.UseAt(op) == reg {
				return true
			}
		}
		if x.HasDst() && x.Dst == reg {
			return false
		}
	}
	bit := lv.Bit[reg]
	return bit >= 0 && lv.Out[lv.Index(b)].Has(int(bit))
}
