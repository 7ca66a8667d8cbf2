// Package freq estimates basic-block execution frequencies for the paper's
// order determination (section 2.2): sign extensions are eliminated starting
// from the most frequently executed region, so that the surviving extension
// is the one in the coldest block.
//
// The estimate combines the loop nesting level of each block with the
// execution frequency within its acyclic region derived from branch
// probabilities. When a dynamic profile gathered by the interpreter tier is
// available (a profile.Profile; the paper's combined interpreter and dynamic
// compiler [20]), measured branch probabilities replace the static 50/50
// guess.
package freq

import (
	"fmt"
	"sort"

	"signext/internal/cfg"
	"signext/internal/ir"
	"signext/internal/profile"
)

// LoopScale is the assumed iteration count of one loop level in the static
// estimate.
const LoopScale = 10.0

// Epsilon is the frequency floor for reachable blocks. Irreducible or
// profile-starved CFGs can propagate exactly zero into a live block (every
// acyclic predecessor unreached, or a one-sided profile assigning a branch
// arm probability 0); without a floor, order determination would treat such
// a block — possibly a live loop body — as the coldest region and could
// leave the surviving extension in genuinely hot code.
const Epsilon = 1e-9

// Estimate holds per-block frequency estimates for one function.
type Estimate struct {
	Fn   *ir.Func
	Freq map[*ir.Block]float64
}

// Compute produces the frequency estimate. prof may be nil (purely static
// estimation); a branch it has no counts for gets the static heuristic.
func Compute(fn *ir.Func, info *cfg.Info, prof profile.Profile) *Estimate {
	e := &Estimate{Fn: fn, Freq: map[*ir.Block]float64{}}

	// Raw branch probability of each conditional edge, before normalization.
	rawProb := func(b *ir.Block, succIdx int) float64 {
		if len(b.Succs) < 2 {
			return 1
		}
		term := b.Term()
		if term != nil {
			taken, fall := prof.Counts(fn.Name, term.ID)
			if taken > 0 || fall > 0 {
				// Sum in float64: merged profiles saturate counts at
				// MaxInt64, so the int64 sum can overflow negative and
				// silently discard the profile for exactly the hottest
				// branches.
				total := float64(taken) + float64(fall)
				if succIdx == 0 {
					return float64(taken) / total
				}
				return float64(fall) / total
			}
		}
		// Static heuristic: a back edge (to a dominating block) is very
		// likely taken; otherwise split evenly.
		s := b.Succs[succIdx]
		if info.Dominates(s, b) {
			return 0.9
		}
		for k, o := range b.Succs {
			if k != succIdx && info.Dominates(o, b) {
				return 0.1
			}
		}
		return 0.5
	}
	// prob normalizes the arms of each branch to sum to exactly 1. The raw
	// values can drift: the static heuristic assigns 0.9 to every dominating
	// successor, so a branch whose arms BOTH close a loop sums to 1.8; and
	// merged or partial dynamic profiles can carry rounding residue. Without
	// normalization such a branch injects (or leaks) frequency mass, inflating
	// everything downstream of it. The division is skipped when the sum is
	// already exactly 1 so the common cases (0.9/0.1, 0.5/0.5, well-formed
	// profiles) keep their bit-exact historical values.
	prob := func(b *ir.Block, succIdx int) float64 {
		p := rawProb(b, succIdx)
		if len(b.Succs) < 2 {
			return p
		}
		sum := 0.0
		for k := range b.Succs {
			sum += rawProb(b, k)
		}
		if sum != 1 && sum > 0 {
			return p / sum
		}
		return p
	}

	// Propagate frequencies in RPO within the acyclic skeleton: ignore back
	// edges, then multiply loop bodies by LoopScale per nesting level (or by
	// the profiled trip count when available).
	e.Freq[fn.Entry()] = 1
	for _, b := range info.RPO {
		if b == fn.Entry() {
			continue
		}
		sum := 0.0
	preds:
		for i, p := range b.Preds {
			// Duplicate edges appear once per edge in Preds; edgeMass already
			// sums every p→b edge, so handle each distinct predecessor once.
			for _, q := range b.Preds[:i] {
				if q == p {
					continue preds
				}
			}
			if !info.Reached[p] {
				continue
			}
			if info.Dominates(b, p) {
				continue // back edge: handled by the loop multiplier
			}
			sum += e.Freq[p] * edgeMass(p, b, prob)
		}
		e.Freq[b] = sum
	}
	// Frequency floor: info.RPO holds exactly the blocks reachable from the
	// entry, so this floors reached blocks (and only those) at Epsilon before
	// loop scaling, preserving the relative ordering of nested zero-mass
	// loop bodies.
	for _, b := range info.RPO {
		if e.Freq[b] == 0 {
			e.Freq[b] = Epsilon
		}
	}
	for _, b := range info.RPO {
		d := info.Depth(b)
		scale := 1.0
		for i := 0; i < d; i++ {
			scale *= LoopScale
		}
		e.Freq[b] *= scale
	}

	// Note the profile influences the estimate only through the branch
	// probabilities above, exactly as the paper describes (section 2.2
	// "enhance the accuracy of branch probabilities"): absolute profiled
	// counts would not compose with the static loop-nesting scale, and after
	// transformations that renumber instructions (inlining) they would be
	// partly stale.
	return e
}

// edgeMass returns the total branch probability flowing from p to b, summing
// over every p→b edge: a conditional branch with both arms targeting the same
// block contributes the mass of both. A predecessor with no matching
// successor edge is a corrupted CFG — that used to be silently treated as
// edge 0, skewing the estimate; now it fails loudly.
func edgeMass(p, b *ir.Block, prob func(*ir.Block, int) float64) float64 {
	mass := 0.0
	found := false
	for k, s := range p.Succs {
		if s == b {
			mass += prob(p, k)
			found = true
		}
	}
	if !found {
		panic(fmt.Sprintf("freq: %s lists %s as a predecessor, but %s has no successor edge to %s",
			b, p, p, b))
	}
	return mass
}

// HotFirst returns the function's blocks sorted from most to least frequently
// executed; ties break on block ID for determinism.
func (e *Estimate) HotFirst() []*ir.Block {
	out := append([]*ir.Block(nil), e.Fn.Blocks...)
	sort.SliceStable(out, func(i, j int) bool {
		fi, fj := e.Freq[out[i]], e.Freq[out[j]]
		if fi != fj {
			return fi > fj
		}
		return out[i].ID < out[j].ID
	})
	return out
}
