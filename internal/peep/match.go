package peep

import (
	"signext/internal/chains"
	"signext/internal/ir"
	"signext/internal/vrange"
)

type vrangeRange = vrange.Range

// bindSite records where a pattern variable was read, so guards can ask for
// its value range at exactly that use (OfOperandAt refines through
// dominating branch conditions, which is what powers redundant-compare
// elimination).
type bindSite struct {
	ins *ir.Instr
	op  int
}

// Match is one successful (or in-progress) binding of a rule's pattern
// against an anchor instruction, plus scratch space for guard-computed
// constants consumed by the replacement template.
type Match struct {
	Fn  *ir.Func
	Ins *ir.Instr  // the anchor
	W   ir.Width   // anchor width
	M   ir.Machine // machine model the run targets

	an *vrange.Analysis
	ch *chains.Chains

	regs    map[string]ir.Reg
	sites   map[string]bindSite
	consts  map[string]int64
	scratch map[string]int64
	subs    []*ir.Instr // matched nested instructions, dead after rewrite
}

// Reg returns the register bound to a pattern variable.
func (m *Match) Reg(name string) ir.Reg { return m.regs[name] }

// Const returns a named constant: pattern-bound first, then guard-stashed.
func (m *Match) Const(name string) int64 {
	if v, ok := m.consts[name]; ok {
		return v
	}
	return m.scratch[name]
}

// Set stashes a guard-computed constant for the template to consume.
func (m *Match) Set(name string, v int64) {
	if m.scratch == nil {
		m.scratch = map[string]int64{}
	}
	m.scratch[name] = v
}

// Get returns a guard-stashed constant.
func (m *Match) Get(name string) int64 { return m.scratch[name] }

// RangeOf returns the value range of a bound variable at its use site.
func (m *Match) RangeOf(name string) vrange.Range {
	s, ok := m.sites[name]
	if !ok {
		return vrange.Bottom()
	}
	return m.an.OfOperandAt(s.ins, s.op)
}

// newMatch returns the Match that every attempt of one round against fn
// binds into. Each attempt clears it, and a successful one is applied before
// the next begins, so no binding outlives its attempt.
func newMatch(fn *ir.Func, mach ir.Machine, an *vrange.Analysis, ch *chains.Chains) *Match {
	return &Match{
		Fn:     fn,
		M:      mach,
		an:     an,
		ch:     ch,
		regs:   map[string]ir.Reg{},
		sites:  map[string]bindSite{},
		consts: map[string]int64{},
	}
}

// reset clears m for an attempt against anchor.
func (m *Match) reset(anchor *ir.Instr) {
	m.Ins = anchor
	m.W = anchor.W
	clear(m.regs)
	clear(m.sites)
	clear(m.consts)
	clear(m.scratch)
	m.subs = m.subs[:0]
}

// matchRule attempts to bind rule against anchor into m, trying the commuted
// operand order as well when the rule allows it, and reports whether it
// matched. dirty suppresses binding instructions already rewritten this
// round (their cached analyses are stale in ways the value-preservation
// argument does not cover).
func matchRule(m *Match, rule *Rule, anchor *ir.Instr, dirty map[*ir.Instr]bool) bool {
	widthOK := false
	for _, w := range rule.Widths {
		if anchor.W == w {
			widthOK = true
			break
		}
	}
	if !widthOK {
		return false
	}
	orders := [][]int{nil} // nil means identity order
	if rule.Commute && len(rule.Pattern.Args) == 2 {
		orders = append(orders, []int{1, 0})
	}
	for _, order := range orders {
		m.reset(anchor)
		if !m.matchPat(anchor, &rule.Pattern, order, dirty) {
			continue
		}
		if !m.noRedefinitions() {
			continue
		}
		ok := true
		for _, g := range rule.Guards {
			if !g.Fn(m) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// matchPat binds one pattern instruction. order, when non-nil, permutes the
// pattern args over the instruction operands (commuted matching).
func (m *Match) matchPat(ins *ir.Instr, p *Pat, order []int, dirty map[*ir.Instr]bool) bool {
	if ins.Op != p.Op || ins.NumSrcs() != len(p.Args) {
		return false
	}
	for k := range p.Args {
		opIdx := k
		if order != nil {
			opIdx = order[k]
		}
		if !m.matchArg(ins, opIdx, &p.Args[k], dirty) {
			return false
		}
	}
	return true
}

func (m *Match) matchArg(ins *ir.Instr, op int, pa *PatArg, dirty map[*ir.Instr]bool) bool {
	switch pa.Kind {
	case ArgVar:
		r := ins.UseAt(op)
		if prev, ok := m.regs[pa.Name]; ok {
			return prev == r
		}
		m.regs[pa.Name] = r
		m.sites[pa.Name] = bindSite{ins, op}
		return true

	case ArgConst:
		v, ok := m.an.ConstOperand(ins, op)
		if !ok {
			return false
		}
		if prev, bound := m.consts[pa.Name]; bound {
			return prev == v
		}
		m.consts[pa.Name] = v
		return true

	case ArgConstVal:
		v, ok := m.an.ConstOperand(ins, op)
		return ok && v == pa.Val

	case ArgSub:
		defs := m.ch.UD(ins, op)
		if len(defs) != 1 || defs[0].IsParam() {
			return false
		}
		sub := defs[0].Instr
		// Same block as the anchor, matching width, and the anchor is its
		// only use, so the matched instruction is dead after the rewrite.
		if sub.Blk != m.Ins.Blk || sub.W != m.Ins.W || dirty[sub] {
			return false
		}
		if len(m.ch.DU(sub)) != 1 {
			return false
		}
		if !m.matchPat(sub, pa.Sub, nil, dirty) {
			return false
		}
		m.subs = append(m.subs, sub)
		return true
	}
	return false
}

// noRedefinitions rejects matches where a register bound at a nested
// instruction is redefined between that binding and the anchor — including
// by the nested instruction itself (`r2 = shl r2, k` overwrites the value
// the pattern variable names). The replacement reads bound registers
// immediately before the anchor, so their values must survive to there.
func (m *Match) noRedefinitions() bool {
	b := m.Ins.Blk
	anchorIdx := b.IndexOf(m.Ins)
	for name, site := range m.sites {
		if site.ins == m.Ins {
			continue
		}
		r := m.regs[name]
		from := b.IndexOf(site.ins)
		if from < 0 || anchorIdx < 0 {
			return false
		}
		for k := from; k < anchorIdx; k++ {
			ins := b.Instrs[k]
			if ins.HasDst() && ins.Dst == r {
				return false
			}
		}
	}
	return true
}

// apply performs the rewrite: template prefix instructions are inserted
// before the anchor, then the last template line (or the rule's Branch
// function) rewrites the anchor in place, keeping its destination register
// so no uses need rewriting. It returns the freshly inserted instructions
// and whether the rewrite actually happened — a Branch function may still
// decline after its guards passed (foldDecidedBranch reverts folds that
// would leave the function statically malformed).
func (m *Match) apply(rule *Rule) ([]*ir.Instr, bool) {
	if rule.Branch != nil {
		return nil, rule.Branch(m)
	}
	anchor := m.Ins
	b := anchor.Blk
	locals := map[string]ir.Reg{}
	lookup := func(name string) ir.Reg {
		if r, ok := locals[name]; ok {
			return r
		}
		if r, ok := m.regs[name]; ok {
			return r
		}
		panic("peep: rule " + rule.Name + ": unbound template operand " + name)
	}
	var inserted []*ir.Instr
	for i := range rule.Replace {
		t := &rule.Replace[i]
		w := t.W
		var c int64
		if t.Const != nil {
			c = t.Const(m)
			if w == 0 {
				w = ir.W64
				if ir.W32.InRange(c) {
					w = ir.W32
				}
			}
		}
		if w == 0 {
			w = anchor.W
		}
		if i < len(rule.Replace)-1 {
			ins := m.Fn.NewInstr(t.Op)
			ins.W = w
			ins.Const = c
			for _, a := range t.Args {
				ins.Srcs[ins.NSrcs] = lookup(a)
				ins.NSrcs++
			}
			ins.Dst = m.Fn.NewReg()
			locals[t.Dst] = ins.Dst
			b.InsertBefore(anchor, ins)
			inserted = append(inserted, ins)
			continue
		}
		if t.Dst != RDst {
			panic("peep: rule " + rule.Name + ": last template line must define " + RDst)
		}
		anchor.Op = t.Op
		anchor.W = w
		anchor.Cond = 0
		anchor.NSrcs = 0
		anchor.Srcs = [3]ir.Reg{}
		anchor.Const = c
		for _, a := range t.Args {
			anchor.Srcs[anchor.NSrcs] = lookup(a)
			anchor.NSrcs++
		}
	}
	return inserted, true
}
