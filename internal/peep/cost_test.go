package peep

import (
	"testing"

	"signext/internal/ir"
	"signext/internal/target"
)

// patternCost sums the machine cycle cost of the instructions a rule's
// match consumes: the anchor plus every nested sub-pattern instruction
// (sole-use by construction, so the rewrite deletes it).
func patternCost(p *Pat, c func(*ir.Instr) int64) int64 {
	total := c(&ir.Instr{Op: p.Op})
	for i := range p.Args {
		if p.Args[i].Kind == ArgSub {
			total += patternCost(p.Args[i].Sub, c)
		}
	}
	return total
}

// replacementCost sums the cycle cost of the emitted template. The one
// branch rule rewrites its anchor to a jump.
func replacementCost(r *Rule, c func(*ir.Instr) int64) int64 {
	if r.Branch != nil {
		return c(&ir.Instr{Op: ir.OpJmp})
	}
	var total int64
	for i := range r.Replace {
		total += c(&ir.Instr{Op: r.Replace[i].Op})
	}
	return total
}

// TestRuleCostModel pins, per rule and per machine model, the static cycle
// cost of the matched pattern against its replacement, and fails on any
// pessimization. This is the satellite the issue asks for: a table change
// that makes a "peephole" emit something slower than what it matched (on
// either IA64 or PPC64 — the machines disagree on multiply cost) cannot
// land silently.
func TestRuleCostModel(t *testing.T) {
	// want[name] = {patIA64, replIA64, patPPC64, replPPC64}.
	want := map[string][4]int64{
		"div-pow2":     {35, 2, 35, 2},  // div -> const+lshr
		"rem-pow2":     {35, 2, 35, 2},  // rem -> const+and
		"div-magic":    {35, 10, 35, 8}, // div -> const+mul+const+lshr
		"rem-magic":    {35, 19, 35, 15},
		"shl-shl":      {2, 2, 2, 2},
		"mul-pow2":     {7, 2, 5, 2}, // mul -> const+shl
		"mul-one":      {7, 1, 5, 1}, // mul -> mov
		"or-zero":      {1, 1, 1, 1},
		"and-minusone": {1, 1, 1, 1},
		"xor-zero":     {1, 1, 1, 1},
		"add-zero":     {1, 1, 1, 1},
		"sub-zero":     {1, 1, 1, 1},
		"br-fold":      {2, 1, 2, 1}, // br -> jmp
	}
	machines := []ir.Machine{ir.IA64, ir.PPC64}
	for i := range Rules {
		r := &Rules[i]
		t.Run(r.Name, func(t *testing.T) {
			w, ok := want[r.Name]
			if !ok {
				t.Fatalf("rule %s has no pinned cost row; add one to TestRuleCostModel", r.Name)
			}
			for mi, mach := range machines {
				c := target.CostModel(mach)
				pat := patternCost(&r.Pattern, c)
				repl := replacementCost(r, c)
				if pat != w[2*mi] || repl != w[2*mi+1] {
					t.Errorf("%v: cost (pattern=%d, replacement=%d), pinned (%d, %d)",
						mach, pat, repl, w[2*mi], w[2*mi+1])
				}
				if repl > pat {
					t.Errorf("%v: replacement costs %d cycles but the matched pattern only %d — the rule is a pessimization",
						mach, repl, pat)
				}
			}
		})
	}
	for name := range want {
		if FindRule(name) == nil {
			t.Errorf("pinned cost row %q names no rule in the table", name)
		}
	}
}
