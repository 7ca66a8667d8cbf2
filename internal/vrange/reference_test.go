package vrange

import (
	"fmt"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/ir"
)

// computeReference is the round-robin solve Compute replaced, kept as the
// oracle of the differential tests: every pass evaluates every definition in
// layout order, for at most 60 passes, then up to three narrowing passes
// evaluate every definition again.
func computeReference(fn *ir.Func, ch *chains.Chains, info *cfg.Info, mach ir.Machine, maxLen int64) *Analysis {
	a := newAnalysis(fn, ch, info, mach, maxLen)
	for pass := 0; pass < 60; pass++ {
		changed := false
		seen := pass > 0 // pass 0 is every definition's first visit
		for _, id := range a.order {
			n := &a.nodes[id]
			nr := a.transfer(n.ins)
			a.Evals++
			old := n.r
			if seen {
				nr = nr.Union(old) // monotone growth
			}
			if !seen || nr != old {
				full := a.fullFor(n.ins.W)
				if seen && nr.Lo < old.Lo {
					n.bumpLo++
					if n.bumpLo > widenAfter {
						nr.Lo = full.Lo
					}
				}
				if seen && nr.Hi > old.Hi {
					n.bumpHi++
					if n.bumpHi > widenAfter {
						nr.Hi = full.Hi
					}
				}
				if !seen || nr != old {
					n.r = nr
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for pass := 0; pass < 3; pass++ {
		changed := false
		for _, id := range a.order {
			n := &a.nodes[id]
			nr := a.transfer(n.ins).Intersect(n.r)
			a.Evals++
			if !nr.IsBottom() && nr != n.r {
				n.r = nr
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return a
}

// SetObserver makes Compute show every Analysis it returns to f, until the
// returned function restores the previous observer.
func SetObserver(f func(*Analysis)) (restore func()) {
	old := observe
	observe = f
	return func() { observe = old }
}

// CheckAgainstReference re-solves a's function with the round-robin solver
// and describes every difference: a definition's range that is not bit for
// bit the same, or an operand fact or condition-site list one solve read and
// the other did not (the memos later queries answer from). It returns the
// reference's evaluation count.
func CheckAgainstReference(a *Analysis) (refEvals int, diffs []string) {
	ref := computeReference(a.fn, a.ch, a.info, a.mach, a.maxLen)
	for _, id := range a.order {
		if got, want := a.nodes[id].r, ref.nodes[id].r; got != want {
			diffs = append(diffs, fmt.Sprintf("%s: %s: range %v, reference %v", a.fn.Name, a.nodes[id].ins, got, want))
		}
	}
	for k := range a.slots {
		if a.slots[k].known != ref.slots[k].known {
			diffs = append(diffs, fmt.Sprintf("%s: use slot %d: read %v, reference %v", a.fn.Name, k, a.slots[k].known, ref.slots[k].known))
		}
	}
	for k := range a.keys {
		if a.keys[k].pub != ref.keys[k].pub {
			diffs = append(diffs, fmt.Sprintf("%s: sites of %v at %s: read %v, reference %v", a.fn.Name, a.keys[k].reg, a.keys[k].blk, a.keys[k].pub, ref.keys[k].pub))
		}
	}
	return ref.Evals, diffs
}
