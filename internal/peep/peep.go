package peep

import (
	"fmt"
	"strings"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/ir"
	"signext/internal/opt"
	"signext/internal/vrange"
)

// maxRounds bounds the match-rewrite fixpoint. Rewrites strictly simplify,
// so in practice two rounds reach the fixpoint; the cap only defends against
// a pathological rule interaction.
const maxRounds = 4

// Config parameterizes one Run.
type Config struct {
	Machine     ir.Machine
	MaxArrayLen int64
	Rules       []string // rule-name filter; empty enables the whole table
}

// Stats reports what one Run did.
type Stats struct {
	Rewrites int            // total rule applications
	Rounds   int            // rounds that performed at least one rewrite
	Removed  int            // dead instructions cleaned up after rewriting
	ByRule   map[string]int // applications per rule name
}

// ValidateRules checks a -peep-rules style filter against the table.
func ValidateRules(names []string) error {
	for _, n := range names {
		if FindRule(n) == nil {
			return fmt.Errorf("peep: unknown rule %q (have %s)",
				n, strings.Join(RuleNames(), ", "))
		}
	}
	return nil
}

// Run drives the table interpreter over fn to a bounded fixpoint. Each
// round recomputes the CFG, UD/DU chains and value ranges, walks reachable
// blocks in layout order, and applies the first matching rule at each
// instruction. Instructions touched by a rewrite are dirty for the rest of
// the round: the cached analyses still describe the old code, and the
// value-preservation argument (every rewrite is bit-identical) only covers
// facts about registers the rewrite did not redefine. A control-flow
// rewrite invalidates the CFG itself, so it ends the round immediately.
// Dead pattern remnants (the matched nested instructions lose their only
// use) are removed between rounds.
func Run(fn *ir.Func, c Config) Stats {
	var enabled []*Rule
	if len(c.Rules) == 0 {
		for i := range Rules {
			enabled = append(enabled, &Rules[i])
		}
	} else {
		set := map[string]bool{}
		for _, n := range c.Rules {
			set[n] = true
		}
		for i := range Rules {
			if set[Rules[i].Name] {
				enabled = append(enabled, &Rules[i])
			}
		}
	}
	st := Stats{ByRule: map[string]int{}}
	for round := 0; round < maxRounds; round++ {
		n := runRound(fn, c, enabled, &st)
		if n == 0 {
			break
		}
		st.Rounds++
		st.Rewrites += n
		st.Removed += opt.DCE(fn)
	}
	return st
}

func runRound(fn *ir.Func, c Config, enabled []*Rule, st *Stats) int {
	info := cfg.Compute(fn)
	ch := chains.Build(fn, info)
	an := vrange.Compute(fn, ch, info, c.Machine, c.MaxArrayLen)
	reach := reachable(fn)
	dirty := map[*ir.Instr]bool{}
	m := newMatch(fn, c.Machine, an, ch)
	n := 0
	for _, b := range fn.Blocks {
		if !reach[b] {
			continue
		}
		snapshot := append([]*ir.Instr(nil), b.Instrs...)
		for _, ins := range snapshot {
			if dirty[ins] || ins.Blk != b {
				continue
			}
			for _, rule := range enabled {
				if ins.Op != rule.Pattern.Op {
					continue
				}
				if !matchRule(m, rule, ins, dirty) {
					continue
				}
				inserted, ok := m.apply(rule)
				if !ok {
					continue
				}
				n++
				st.ByRule[rule.Name]++
				dirty[ins] = true
				for _, s := range m.subs {
					dirty[s] = true
				}
				for _, s := range inserted {
					dirty[s] = true
				}
				if rule.Branch != nil {
					// The CFG changed under the cached analyses; end the
					// round and let the next one recompute everything.
					return n
				}
				break
			}
		}
	}
	return n
}

// reachable returns the blocks reachable from the entry. Branch folding
// leaves abandoned blocks in the function; matching inside them would
// consume stale range facts for code that can never run.
func reachable(fn *ir.Func) map[*ir.Block]bool {
	seen := map[*ir.Block]bool{fn.Entry(): true}
	work := []*ir.Block{fn.Entry()}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}
