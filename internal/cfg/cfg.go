// Package cfg provides control-flow analyses over the IR: reverse postorder,
// dominator trees, natural loop detection and loop nesting depth. These feed
// the frequency estimator (order determination, paper section 2.2), the
// loop-invariant code motion used by the PRE phase, and the rule that sign
// extension insertion applies only to methods containing loops.
package cfg

import "signext/internal/ir"

// Info bundles the control-flow facts for one function.
type Info struct {
	Fn      *ir.Func
	RPO     []*ir.Block         // reverse postorder, entry first
	RPONum  []int               // Block.ID -> position in RPO, -1 when unreachable
	IDom    []*ir.Block         // Block.ID -> immediate dominator; the entry's is itself, nil when unreachable
	Loops   []*Loop             // outermost-first within each nest
	LoopOf  map[*ir.Block]*Loop // innermost loop containing the block
	Reached map[*ir.Block]bool  // reachable from entry
}

// Loop is a natural loop.
type Loop struct {
	Header *ir.Block
	Blocks map[*ir.Block]bool
	Parent *Loop
	Depth  int // 1 for outermost loops
	// Latches are the blocks with back edges to Header.
	Latches []*ir.Block
}

// Contains reports whether b belongs to the loop body (header included).
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b] }

// Compute runs all analyses for fn.
func Compute(fn *ir.Func) *Info {
	info := &Info{
		Fn:      fn,
		RPONum:  make([]int, fn.NumBlockIDs()),
		IDom:    make([]*ir.Block, fn.NumBlockIDs()),
		LoopOf:  map[*ir.Block]*Loop{},
		Reached: map[*ir.Block]bool{},
	}
	info.computeRPO()
	info.computeDominators()
	info.computeLoops()
	return info
}

func (info *Info) computeRPO() {
	var post []*ir.Block
	seen := map[*ir.Block]bool{}
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		info.Reached[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(info.Fn.Entry())
	info.RPO = make([]*ir.Block, len(post))
	for k := range post {
		info.RPO[k] = post[len(post)-1-k]
	}
	for k := range info.RPONum {
		info.RPONum[k] = -1
	}
	for k, b := range info.RPO {
		info.RPONum[b.ID] = k
	}
}

// computeDominators uses the Cooper-Harvey-Kennedy iterative algorithm.
func (info *Info) computeDominators() {
	entry := info.Fn.Entry()
	info.IDom[entry.ID] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range info.RPO[1:] {
			var newIDom *ir.Block
			for _, p := range b.Preds {
				if info.IDom[p.ID] == nil {
					continue // unprocessed or unreachable
				}
				if newIDom == nil {
					newIDom = p
				} else {
					newIDom = info.intersect(p, newIDom)
				}
			}
			if newIDom != nil && info.IDom[b.ID] != newIDom {
				info.IDom[b.ID] = newIDom
				changed = true
			}
		}
	}
}

func (info *Info) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for info.RPONum[a.ID] > info.RPONum[b.ID] {
			a = info.IDom[a.ID]
		}
		for info.RPONum[b.ID] > info.RPONum[a.ID] {
			b = info.IDom[b.ID]
		}
	}
	return a
}

// Dominates reports whether a dominates b.
func (info *Info) Dominates(a, b *ir.Block) bool {
	entry := info.Fn.Entry()
	for {
		if b == a {
			return true
		}
		if b == entry {
			return false
		}
		d := info.IdomOf(b)
		if d == nil || d == b {
			return false
		}
		b = d
	}
}

// IdomOf returns b's immediate dominator: b itself for the entry, nil for a
// block unreachable from it or created after Compute.
func (info *Info) IdomOf(b *ir.Block) *ir.Block {
	if b.ID >= len(info.IDom) {
		return nil
	}
	return info.IDom[b.ID]
}

func (info *Info) computeLoops() {
	// Find back edges: edge b -> h where h dominates b.
	headers := map[*ir.Block][]*ir.Block{} // header -> latches
	var order []*ir.Block
	for _, b := range info.RPO {
		for _, s := range b.Succs {
			if info.Reached[s] && info.Dominates(s, b) {
				if len(headers[s]) == 0 {
					order = append(order, s)
				}
				headers[s] = append(headers[s], b)
			}
		}
	}
	// Build natural loop bodies.
	loopByHeader := map[*ir.Block]*Loop{}
	for _, h := range order {
		l := &Loop{Header: h, Blocks: map[*ir.Block]bool{h: true}, Latches: headers[h]}
		var stack []*ir.Block
		for _, latch := range headers[h] {
			if !l.Blocks[latch] {
				l.Blocks[latch] = true
				stack = append(stack, latch)
			}
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range b.Preds {
				if info.Reached[p] && !l.Blocks[p] {
					l.Blocks[p] = true
					stack = append(stack, p)
				}
			}
		}
		loopByHeader[h] = l
		info.Loops = append(info.Loops, l)
	}
	// Establish nesting: the innermost loop containing each block.
	// Process loops from smallest to largest body so the innermost wins.
	for _, l := range info.Loops {
		for b := range l.Blocks {
			cur := info.LoopOf[b]
			if cur == nil || len(l.Blocks) < len(cur.Blocks) {
				info.LoopOf[b] = l
			}
		}
	}
	// Parent: the innermost *other* loop containing this loop's header.
	for _, l := range info.Loops {
		var parent *Loop
		for _, cand := range info.Loops {
			if cand == l || !cand.Blocks[l.Header] {
				continue
			}
			if parent == nil || len(cand.Blocks) < len(parent.Blocks) {
				parent = cand
			}
		}
		l.Parent = parent
	}
	for _, l := range info.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
}

// Depth returns the loop nesting depth of b (0 outside any loop).
func (info *Info) Depth(b *ir.Block) int {
	if l := info.LoopOf[b]; l != nil {
		return l.Depth
	}
	return 0
}

// HasLoop reports whether the function contains any loop; the paper applies
// sign extension insertion only to such methods (section 2.1).
func (info *Info) HasLoop() bool { return len(info.Loops) > 0 }

// Preheader returns the unique out-of-loop predecessor of l's header if it
// exists and has the header as its only successor; otherwise nil. Used by
// loop-invariant code motion.
func (l *Loop) Preheader() *ir.Block {
	var pre *ir.Block
	for _, p := range l.Header.Preds {
		if l.Blocks[p] {
			continue
		}
		if pre != nil {
			return nil // multiple outside predecessors
		}
		pre = p
	}
	if pre != nil && len(pre.Succs) == 1 {
		return pre
	}
	return nil
}

// PostOrder returns blocks in postorder (useful for backward dataflow).
func (info *Info) PostOrder() []*ir.Block {
	out := make([]*ir.Block, len(info.RPO))
	for k := range info.RPO {
		out[k] = info.RPO[len(info.RPO)-1-k]
	}
	return out
}
