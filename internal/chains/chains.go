// Package chains builds and maintains UD/DU chains over the IR. The paper's
// elimination phase (section 2.3) is driven entirely by these chains:
// AnalyzeUSE walks DU chains forward, AnalyzeDEF and AnalyzeARRAY walk UD
// chains backward. Because every compiler-generated sign extension has the
// same-register form "v = ext.W v", removing one is a local chain-patching
// operation rather than a full recomputation.
//
// The chains are dense. Build numbers every operand of every instruction (a
// use slot) in layout order and every definition as the reaching-definitions
// solution does (parameters first, then layout order). UD lists hang off use
// slots and DU lists off definition numbers; each family is carved from one
// backing array, and each list is capped at its own end so that growing one
// copies it out instead of overwriting its neighbour. Instructions are found
// by Instr.ID; an instruction created after Build, or removed through
// RemoveSameRegExt or Forget, has no chains.
package chains

import (
	"cmp"
	"slices"

	"signext/internal/cfg"
	"signext/internal/dataflow"
	"signext/internal/ir"
)

// UseSite identifies one operand of one instruction.
type UseSite struct {
	Instr *ir.Instr
	OpIdx int // index as in ir.Instr.UseAt
}

// entry is what Build recorded for the instruction with a given ID.
type entry struct {
	ins  *ir.Instr // nil when no instruction had the ID, or it was removed
	slot int32     // first use slot
	nuse int32     // use slots, one per operand at Build time
	def  int32     // definition number, -1 if it defined nothing
}

// Chains is the UD/DU chain structure for a single function.
type Chains struct {
	Fn *ir.Func

	at   []entry              // Instr.ID -> entry
	defs []dataflow.DefSite   // definition number -> site
	ud   [][]dataflow.DefSite // use slot -> reaching definitions, ascending by number
	du   [][]UseSite          // definition number -> reached uses, in layout order

	// Lists that SetUD or Moved left out of layout order, for Sort, and
	// Sort's scratch.
	unsortedDU, unsortedUD []int32 // definition numbers, use slots
	ord                    []int32
}

// Build computes fresh chains for fn.
func Build(fn *ir.Func, info *cfg.Info) *Chains {
	r := dataflow.ComputeReaching(fn, info)
	c := &Chains{Fn: fn, at: make([]entry, len(r.DefNum)), defs: r.Defs}
	nslots := 0
	for _, b := range fn.Blocks {
		for _, ins := range b.Instrs {
			n := ins.NumUses()
			c.at[ins.ID] = entry{ins: ins, slot: int32(nslots), nuse: int32(n), def: r.DefNum[ins.ID]}
			nslots += n
		}
	}

	// Walk the function once, collecting each slot's reaching definition
	// numbers in slot order and counting each definition's uses. A read
	// after a definition of its register in the same block is fed by that
	// definition alone; any other read by what reaches the block's entry.
	udOff := make([]int32, nslots+1)
	udNum := make([]int32, 0, nslots)
	duOff := make([]int32, len(r.Defs)+1)
	type local struct{ blk, def int32 }
	latest := make([]local, fn.NReg) // register -> its latest definition, and the block position+1 of it
	slot := 0
	for k, b := range fn.Blocks {
		for _, ins := range b.Instrs {
			for op := 0; op < ins.NumUses(); op++ {
				n := len(udNum)
				if l := latest[ins.UseAt(op)]; l.blk == int32(k+1) {
					udNum = append(udNum, l.def)
				} else {
					udNum = r.EntryDefs(udNum, k, ins.UseAt(op))
				}
				for _, dn := range udNum[n:] {
					duOff[dn+1]++
				}
				slot++
				udOff[slot] = int32(len(udNum))
			}
			if ins.HasDst() {
				latest[ins.Dst] = local{int32(k + 1), r.DefNum[ins.ID]}
			}
		}
	}
	for dn := range r.Defs {
		duOff[dn+1] += duOff[dn]
	}

	// Carve the lists. Filling DU lists in slot order keeps each one in
	// layout order.
	c.ud = make([][]dataflow.DefSite, nslots)
	c.du = make([][]UseSite, len(r.Defs))
	udAll := make([]dataflow.DefSite, len(udNum))
	duAll := make([]UseSite, len(udNum))
	fill := duOff[:len(r.Defs)]
	slot = 0
	for _, b := range fn.Blocks {
		for _, ins := range b.Instrs {
			for op := 0; op < ins.NumUses(); op++ {
				lo, hi := udOff[slot], udOff[slot+1]
				for i, dn := range udNum[lo:hi] {
					udAll[int(lo)+i] = r.Defs[dn]
					duAll[fill[dn]] = UseSite{ins, op}
					fill[dn]++
				}
				if lo < hi {
					c.ud[slot] = udAll[lo:hi:hi]
				}
				slot++
			}
		}
	}
	// fill[dn] has advanced to the end of dn's run, the start of dn+1's.
	var lo int32
	for dn, hi := range fill {
		if lo < hi {
			c.du[dn] = duAll[lo:hi:hi]
		}
		lo = hi
	}
	return c
}

// entryOf returns Build's record of ins, or nil if ins has no chains.
func (c *Chains) entryOf(ins *ir.Instr) *entry {
	if ins.ID < 0 || ins.ID >= len(c.at) || c.at[ins.ID].ins != ins {
		return nil
	}
	return &c.at[ins.ID]
}

// slotOf returns the use slot of operand op of ins, or -1 if it has none.
func (c *Chains) slotOf(ins *ir.Instr, op int) int {
	e := c.entryOf(ins)
	if e == nil || op < 0 || op >= int(e.nuse) {
		return -1
	}
	return int(e.slot) + op
}

// defOf returns the definition number of d, or -1 if it has none.
func (c *Chains) defOf(d dataflow.DefSite) int {
	if d.IsParam() {
		return d.Param
	}
	if e := c.entryOf(d.Instr); e != nil {
		return int(e.def)
	}
	return -1
}

// UD returns the definitions reaching operand op of ins.
func (c *Chains) UD(ins *ir.Instr, op int) []dataflow.DefSite {
	if s := c.slotOf(ins, op); s >= 0 {
		return c.ud[s]
	}
	return nil
}

// DU returns the uses reached by the definition made by ins.
func (c *Chains) DU(ins *ir.Instr) []UseSite {
	if e := c.entryOf(ins); e != nil && e.def >= 0 {
		return c.du[e.def]
	}
	return nil
}

// DUOfParam returns the uses reached by parameter p's entry definition.
func (c *Chains) DUOfParam(p int) []UseSite { return c.du[p] }

func containsDef(ds []dataflow.DefSite, d dataflow.DefSite) bool {
	for _, x := range ds {
		if x == d {
			return true
		}
	}
	return false
}

func containsUse(us []UseSite, u UseSite) bool {
	for _, x := range us {
		if x == u {
			return true
		}
	}
	return false
}

func removeDef(ds []dataflow.DefSite, d dataflow.DefSite) []dataflow.DefSite {
	out := ds[:0]
	for _, x := range ds {
		if x != d {
			out = append(out, x)
		}
	}
	return out
}

func removeUse(us []UseSite, u UseSite) []UseSite {
	out := us[:0]
	for _, x := range us {
		if x != u {
			out = append(out, x)
		}
	}
	return out
}

// RemoveSameRegExt deletes a same-register extension or dummy
// ("v = ext.W v" / "v = ext.dummy.W v") from its block and patches the chains
// so every use formerly fed by e is fed by the definitions that fed e.
func (c *Chains) RemoveSameRegExt(e *ir.Instr) {
	if (e.Op != ir.OpExt && e.Op != ir.OpExtDummy) || e.Dst != e.Srcs[0] {
		panic("chains: RemoveSameRegExt on non same-register extension")
	}
	eDef := dataflow.DefSite{Instr: e, Param: -1, Reg: e.Dst}
	eUse := UseSite{e, 0}

	feeding := append([]dataflow.DefSite(nil), c.UD(e, 0)...)
	feeding = removeDef(feeding, eDef) // drop a self-loop, if any
	downstream := append([]UseSite(nil), c.DU(e)...)
	downstream = removeUse(downstream, eUse)

	// Re-point each downstream use at the feeding definitions.
	for _, u := range downstream {
		s := c.slotOf(u.Instr, u.OpIdx)
		if s < 0 {
			continue
		}
		ds := removeDef(c.ud[s], eDef)
		for _, d := range feeding {
			if !containsDef(ds, d) {
				ds = append(ds, d)
			}
		}
		c.ud[s] = ds
	}
	// Extend each feeding definition's DU set with the downstream uses and
	// drop its edge to e itself.
	for _, d := range feeding {
		dn := c.defOf(d)
		if dn < 0 {
			continue
		}
		us := removeUse(c.du[dn], eUse)
		for _, u := range downstream {
			if !containsUse(us, u) {
				us = append(us, u)
			}
		}
		c.du[dn] = us
	}
	if x := c.entryOf(e); x != nil {
		c.ud[x.slot] = nil
		if x.def >= 0 {
			c.du[x.def] = nil
		}
		x.ins = nil
	}
	e.Blk.Remove(e)
}

// Moved restores layout order in every list that mentions the moved
// instructions. The caller guarantees each move left every UD and DU set
// unchanged, as licm's hoisting conditions do; only the positions that order
// the lists moved. Afterwards the chains equal a fresh Build list for list.
func (c *Chains) Moved(moved ...*ir.Instr) {
	for _, ins := range moved {
		for op := 0; op < ins.NumUses(); op++ {
			for _, d := range c.UD(ins, op) {
				if dn := c.defOf(d); dn >= 0 {
					c.unsortedDU = append(c.unsortedDU, int32(dn))
				}
			}
		}
		for _, u := range c.DU(ins) {
			if s := c.slotOf(u.Instr, u.OpIdx); s >= 0 {
				c.unsortedUD = append(c.unsortedUD, int32(s))
			}
		}
	}
	c.Sort()
}

// The maintenance below lets a pass that rewrites operands or deletes
// instructions, without touching the CFG, keep the chains equal to a fresh
// Build instead of rebuilding them. Each call names the edges that changed;
// the caller vouches for which definitions reach a rewritten operand.

// unlinkUse removes use u, whose slot is s, from the DU list of every
// definition its UD list names.
func (c *Chains) unlinkUse(s int, u UseSite) {
	for _, d := range c.ud[s] {
		if dn := c.defOf(d); dn >= 0 {
			c.du[dn] = removeUse(c.du[dn], u)
		}
	}
}

// DropUses removes the edges of every operand ins had when the chains last
// saw it, and gives ins one empty use slot per operand it has now. A pass
// calls it after changing the operands of ins in place, as constant folding
// (no operands left) and CSE (one copy source) do; SetUD fills new slots.
func (c *Chains) DropUses(ins *ir.Instr) {
	e := c.entryOf(ins)
	if e == nil {
		return
	}
	for op := 0; op < int(e.nuse); op++ {
		s := int(e.slot) + op
		c.unlinkUse(s, UseSite{ins, op})
		c.ud[s] = c.ud[s][:0]
	}
	if n := ins.NumUses(); n > int(e.nuse) {
		e.slot = int32(len(c.ud))
		c.ud = append(c.ud, make([][]dataflow.DefSite, n)...)
	}
	e.nuse = int32(ins.NumUses())
}

// SetUD makes defs, ascending as Build orders them, the definitions reaching
// operand op of ins, in place of those recorded, and patches the DU side.
// The DU lists that gained the use stay out of layout order until Sort.
func (c *Chains) SetUD(ins *ir.Instr, op int, defs []dataflow.DefSite) {
	s := c.slotOf(ins, op)
	if s < 0 {
		panic("chains: SetUD on an operand without chains")
	}
	u := UseSite{ins, op}
	c.unlinkUse(s, u)
	c.ud[s] = append(c.ud[s][:0], defs...)
	for _, d := range defs {
		if dn := c.defOf(d); dn >= 0 {
			c.du[dn] = append(c.du[dn], u)
			c.unsortedDU = append(c.unsortedDU, int32(dn))
		}
	}
}

// Forget drops ins, which has been removed from its block, from the chains:
// the edges of its operands go, and so does its definition, which must reach
// no use the chains still record.
func (c *Chains) Forget(ins *ir.Instr) {
	e := c.entryOf(ins)
	if e == nil {
		return
	}
	c.DropUses(ins)
	if e.def >= 0 {
		if len(c.du[e.def]) > 0 {
			panic("chains: Forget of a definition that still reaches a use")
		}
		c.du[e.def] = nil
	}
	e.ins = nil
}

// Sort restores layout order in the lists that SetUD and Moved left out of
// it. A pass that calls SetUD calls Sort once, when it has finished.
func (c *Chains) Sort() {
	if len(c.unsortedDU) == 0 && len(c.unsortedUD) == 0 {
		return
	}
	if n := c.Fn.NumInstrIDs(); cap(c.ord) < n {
		c.ord = make([]int32, n)
	}
	ord := c.ord[:c.Fn.NumInstrIDs()] // Instr.ID -> layout ordinal
	n := int32(0)
	for _, b := range c.Fn.Blocks {
		for _, ins := range b.Instrs {
			ord[ins.ID] = n
			n++
		}
	}
	np := int64(c.Fn.NParams())
	defKey := func(d dataflow.DefSite) int64 {
		if d.IsParam() {
			return int64(d.Param)
		}
		return np + int64(ord[d.Instr.ID])
	}
	byDef := func(a, b dataflow.DefSite) int { return cmp.Compare(defKey(a), defKey(b)) }
	useKey := func(u UseSite) int64 { return int64(ord[u.Instr.ID])<<32 | int64(u.OpIdx) }
	byUse := func(a, b UseSite) int { return cmp.Compare(useKey(a), useKey(b)) }
	slices.Sort(c.unsortedDU)
	for _, dn := range slices.Compact(c.unsortedDU) {
		slices.SortFunc(c.du[dn], byUse)
	}
	slices.Sort(c.unsortedUD)
	for _, s := range slices.Compact(c.unsortedUD) {
		slices.SortFunc(c.ud[s], byDef)
	}
	c.unsortedDU, c.unsortedUD = c.unsortedDU[:0], c.unsortedUD[:0]
}
