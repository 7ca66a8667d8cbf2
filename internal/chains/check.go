package chains

import (
	"fmt"
	"slices"

	"signext/internal/dataflow"
	"signext/internal/ir"
)

// Check validates the chain structure's internal cross-consistency: every
// UD edge has a matching DU edge and vice versa, and every instruction the
// chains mention is still placed in a block of the function. Incremental
// patching (RemoveSameRegExt) must preserve all of these invariants; the
// guard verifier runs Check at phase boundaries to catch chain corruption
// before it licenses an unsound elimination.
func (c *Chains) Check() error {
	inFn := make([]*ir.Instr, c.Fn.NumInstrIDs()) // Instr.ID -> the placed instruction
	c.Fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) { inFn[ins.ID] = ins })

	place := func(ins *ir.Instr) error {
		if ins.ID < 0 || ins.ID >= len(inFn) || inFn[ins.ID] != ins {
			return fmt.Errorf("chains: %s/%s not in function %s", ins, ins.Blk, c.Fn.Name)
		}
		return nil
	}

	// UD -> DU direction.
	for _, e := range c.at {
		if e.ins == nil {
			continue
		}
		if err := place(e.ins); err != nil {
			return err
		}
		for op := 0; op < int(e.nuse); op++ {
			if op >= e.ins.NumUses() {
				return fmt.Errorf("chains: UD entry for out-of-range operand %d of %s", op, e.ins)
			}
			use := UseSite{e.ins, op}
			for _, d := range c.ud[int(e.slot)+op] {
				if !d.IsParam() {
					if err := place(d.Instr); err != nil {
						return err
					}
					if d.Instr.Dst != d.Reg {
						return fmt.Errorf("chains: def site %s claims reg %s", d.Instr, d.Reg)
					}
				} else if d.Param < 0 || d.Param >= c.Fn.NParams() {
					return fmt.Errorf("chains: def site for out-of-range param %d", d.Param)
				}
				if d.Reg != e.ins.UseAt(op) {
					return fmt.Errorf("chains: UD def of %s feeds operand %d of %s reading %s",
						d.Reg, op, e.ins, e.ins.UseAt(op))
				}
				if dn := c.defOf(d); dn < 0 || !containsUse(c.du[dn], use) {
					return fmt.Errorf("chains: UD edge %v -> operand %d of %s lacks DU back-edge",
						d.Reg, op, e.ins)
				}
			}
		}
	}

	// DU -> UD direction.
	for dn, uses := range c.du {
		if len(uses) == 0 {
			continue
		}
		d := c.defs[dn]
		if !d.IsParam() {
			if err := place(d.Instr); err != nil {
				return err
			}
			d.Reg = d.Instr.Dst
		}
		for _, u := range uses {
			if err := place(u.Instr); err != nil {
				return err
			}
			if u.OpIdx < 0 || u.OpIdx >= u.Instr.NumUses() {
				return fmt.Errorf("chains: DU entry for out-of-range operand %d of %s", u.OpIdx, u.Instr)
			}
			if !containsDef(c.UD(u.Instr, u.OpIdx), d) {
				return fmt.Errorf("chains: DU edge to operand %d of %s lacks UD back-edge", u.OpIdx, u.Instr)
			}
		}
	}
	return nil
}

// Diff reports the first difference between the chains of a and b over the
// instructions of a's function: a UD list of an operand, a DU list of a
// definition or of a parameter that is not the same edges in the same order.
// Both must describe the same function. A pass that keeps its chains across
// a transformation proves them current with Diff against a fresh Build.
func Diff(a, b *Chains) error {
	if a.Fn != b.Fn {
		return fmt.Errorf("chains: diff of %s against chains of %s", a.Fn.Name, b.Fn.Name)
	}
	var err error
	a.Fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
		for op := 0; op < ins.NumUses() && err == nil; op++ {
			if x, y := a.UD(ins, op), b.UD(ins, op); !slices.Equal(x, y) {
				err = fmt.Errorf("chains: UD(%s, %d) is %v, want %v", ins, op, defNames(x), defNames(y))
			}
		}
		if x, y := a.DU(ins), b.DU(ins); err == nil && !slices.Equal(x, y) {
			err = fmt.Errorf("chains: DU(%s) is %v, want %v", ins, useNames(x), useNames(y))
		}
	})
	for p := 0; p < a.Fn.NParams() && err == nil; p++ {
		if x, y := a.DUOfParam(p), b.DUOfParam(p); !slices.Equal(x, y) {
			err = fmt.Errorf("chains: DU(param %d) is %v, want %v", p, useNames(x), useNames(y))
		}
	}
	return err
}

func defNames(ds []dataflow.DefSite) []string {
	out := make([]string, len(ds))
	for k, d := range ds {
		if d.IsParam() {
			out[k] = fmt.Sprintf("param %d", d.Param)
		} else {
			out[k] = d.Instr.String()
		}
	}
	return out
}

func useNames(us []UseSite) []string {
	out := make([]string, len(us))
	for k, u := range us {
		out[k] = fmt.Sprintf("%s#%d", u.Instr, u.OpIdx)
	}
	return out
}

// DropUDEdge removes one reaching definition from the UD list of operand op
// of ins WITHOUT patching the DU side — a deliberately unsound mutation.
// It exists for the guard's fault injection, which proves Check detects
// exactly this class of chain damage; it reports whether there was an edge
// to drop.
func (c *Chains) DropUDEdge(ins *ir.Instr, op int) bool {
	s := c.slotOf(ins, op)
	if s < 0 || len(c.ud[s]) == 0 {
		return false
	}
	c.ud[s] = c.ud[s][1:]
	return true
}
