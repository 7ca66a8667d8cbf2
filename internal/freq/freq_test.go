package freq

import (
	"math"
	"testing"

	"signext/internal/cfg"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/profile"
	"signext/internal/progen"
)

// buildIfInLoop: a loop whose body splits into a hot arm and a cold arm.
func buildIfInLoop() (*ir.Func, *ir.Block, *ir.Block, *ir.Block, *ir.Instr) {
	b := ir.NewFunc("f", ir.Param{W: ir.W32})
	i := b.Fn.NewReg()
	b.ConstTo(ir.W32, i, 0)
	head := b.NewBlock()
	hot := b.NewBlock()
	cold := b.NewBlock()
	latch := b.NewBlock()
	exit := b.NewBlock()
	b.Jmp(head)
	b.SetBlock(head)
	mask := b.Const(ir.W32, 15)
	m := b.And(ir.W32, i, mask)
	zero := b.Const(ir.W32, 0)
	var condBr *ir.Instr
	{
		ins := b.Fn.NewInstr(ir.OpBr)
		ins.W = ir.W32
		ins.Cond = ir.CondEQ
		ins.Srcs[0], ins.Srcs[1] = m, zero
		ins.NSrcs = 2
		ins.Blk = b.Block()
		b.Block().Instrs = append(b.Block().Instrs, ins)
		ir.AddEdge(b.Block(), cold) // taken 1/16 of the time
		ir.AddEdge(b.Block(), hot)
		condBr = ins
		b.SetBlock(nil)
	}
	b.SetBlock(hot)
	b.Jmp(latch)
	b.SetBlock(cold)
	b.Jmp(latch)
	b.SetBlock(latch)
	b.OpTo(ir.OpAdd, ir.W32, i, i, b.Const(ir.W32, 1))
	b.Ext(ir.W32, i)
	b.Br(ir.W32, ir.CondLT, i, ir.Reg(0), head, exit)
	b.SetBlock(exit)
	b.Print(ir.W32, i)
	b.Ret(ir.NoReg)
	return b.Fn, hot, cold, exit, condBr
}

func TestStaticEstimate(t *testing.T) {
	fn, hot, cold, exit, _ := buildIfInLoop()
	info := cfg.Compute(fn)
	e := Compute(fn, info, nil)
	if e.Freq[hot] <= e.Freq[exit] || e.Freq[cold] <= e.Freq[exit] {
		t.Fatalf("loop blocks must be hotter than the exit: hot=%g cold=%g exit=%g",
			e.Freq[hot], e.Freq[cold], e.Freq[exit])
	}
	// Statically the if arms split 50/50, so hot == cold.
	if e.Freq[hot] != e.Freq[cold] {
		t.Fatalf("static estimate should split evenly: %g vs %g", e.Freq[hot], e.Freq[cold])
	}
	order := e.HotFirst()
	if order[len(order)-1] != exit && order[len(order)-2] != exit {
		t.Fatalf("exit should rank near the bottom: %v", order)
	}
}

func TestProfileRefinesEstimate(t *testing.T) {
	fn, hot, cold, _, _ := buildIfInLoop()
	prog := ir.NewProgram()
	prog.AddFunc(fn)
	// Drive f with 64 iterations via a main that calls it.
	mb := ir.NewFunc("main")
	mb.CallV("f", mb.Const(ir.W32, 64))
	mb.Ret(ir.NoReg)
	prog.AddFunc(mb.Fn)
	res, err := interp.Run(prog, "main", interp.Options{Mode: interp.Mode32, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	info := cfg.Compute(fn)
	e := Compute(fn, info, res.Profile)
	if e.Freq[hot] <= e.Freq[cold] {
		t.Fatalf("profile must discover the skew: hot=%g cold=%g", e.Freq[hot], e.Freq[cold])
	}
	// 15/16 vs 1/16 split: the ratio should be large.
	if e.Freq[hot] < 10*e.Freq[cold] {
		t.Fatalf("profiled ratio too small: hot=%g cold=%g", e.Freq[hot], e.Freq[cold])
	}
}

// TestProfileEdgeMappingMatchesInterpreter pins the taken/fall-through edge
// convention between the interpreter's profile and the frequency estimate:
// Profile.Counts' taken count is the number of times control went to
// Succs[0] and fall the number of times it went to Succs[1]. A swap would
// silently invert hot-first ordering. The test traces actual block entries
// and checks them against both the raw counts and the resulting estimate.
func TestProfileEdgeMappingMatchesInterpreter(t *testing.T) {
	fn, hot, cold, _, condBr := buildIfInLoop()
	// In buildIfInLoop the branch's Succs[0] (taken, i&15 == 0) is the cold
	// arm and Succs[1] (fall) the hot arm; each arm has the branch block as
	// its only predecessor, so traced entries count the edges exactly.
	if condBr.Blk.Succs[0] != cold || condBr.Blk.Succs[1] != hot {
		t.Fatal("test premise broken: successor arms moved")
	}
	prog := ir.NewProgram()
	prog.AddFunc(fn)
	mb := ir.NewFunc("main")
	mb.CallV("f", mb.Const(ir.W32, 64))
	mb.Ret(ir.NoReg)
	prog.AddFunc(mb.Fn)

	entries := map[*ir.Block]int64{}
	res, err := interp.Run(prog, "main", interp.Options{
		Mode: interp.Mode32, Profile: true,
		Trace: func(fname string, blk *ir.Block, ins *ir.Instr) {
			if fname == "f" && len(blk.Instrs) > 0 && ins == blk.Instrs[0] {
				entries[blk]++
			}
		},
		TraceLimit: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}

	taken, fall := res.Profile.Counts("f", condBr.ID)
	if taken+fall != entries[cold]+entries[hot] {
		t.Fatalf("branch executed %d times but profile counted %d",
			entries[cold]+entries[hot], taken+fall)
	}
	if taken != entries[cold] || fall != entries[hot] {
		t.Fatalf("edge mapping swapped: profile (taken=%d fall=%d), traced (Succs[0]=%d Succs[1]=%d)",
			taken, fall, entries[cold], entries[hot])
	}
	if taken == 0 || fall == 0 || fall <= taken {
		t.Fatalf("expected a skewed, two-sided split: taken=%d fall=%d", taken, fall)
	}

	// The estimate must agree with observed reality: the fall arm ran ~15x
	// more often, so it must also be estimated hotter.
	info := cfg.Compute(fn)
	e := Compute(fn, info, res.Profile)
	if e.Freq[hot] <= e.Freq[cold] {
		t.Fatalf("estimate disagrees with traced execution: hot=%g cold=%g",
			e.Freq[hot], e.Freq[cold])
	}
	ratioTraced := float64(entries[hot]) / float64(entries[cold])
	ratioEst := e.Freq[hot] / e.Freq[cold]
	if ratioEst < 0.5*ratioTraced || ratioEst > 2*ratioTraced {
		t.Fatalf("estimated arm ratio %g far from traced ratio %g", ratioEst, ratioTraced)
	}
}

func TestHotFirstDeterministic(t *testing.T) {
	fn, _, _, _, _ := buildIfInLoop()
	info := cfg.Compute(fn)
	e := Compute(fn, info, nil)
	a := e.HotFirst()
	b := e.HotFirst()
	for k := range a {
		if a[k] != b[k] {
			t.Fatal("HotFirst is not deterministic")
		}
	}
}

// TestDuplicateEdgeMass pins the edgeMass fix: a conditional branch with
// both arms targeting the same block must deliver the block its entire
// frequency. The pre-fix succIndex lookup resolved every duplicate edge to
// edge 0, so the block received 2*P(edge0) instead of P(edge0)+P(edge1) —
// here 0.14 instead of 0.70 — which ranked it below a genuinely colder
// block in HotFirst order.
func TestDuplicateEdgeMass(t *testing.T) {
	b := ir.NewFunc("f")
	entry := b.Block()
	split := b.NewBlock()
	colder := b.NewBlock()
	dup := b.NewBlock()
	exit := b.NewBlock()
	x := b.Const(ir.W32, 0)
	y := b.Const(ir.W32, 1)
	b.Br(ir.W32, ir.CondLT, x, y, split, colder)
	entryBr := entry.Term()
	b.SetBlock(split)
	b.Br(ir.W32, ir.CondEQ, x, y, dup, dup) // both arms to the same block
	splitBr := split.Term()
	b.SetBlock(colder)
	b.Jmp(exit)
	b.SetBlock(dup)
	b.Jmp(exit)
	b.SetBlock(exit)
	b.Ret(ir.NoReg)
	fn := b.Fn
	if len(split.Succs) != 2 || split.Succs[0] != dup || split.Succs[1] != dup {
		t.Fatal("test premise broken: duplicate edge not built")
	}

	prof := profile.Profile{"f": {Branches: map[int]profile.Counts{
		entryBr.ID: {Taken: 7, Fall: 3}, // split 0.7, colder 0.3
		splitBr.ID: {Taken: 1, Fall: 9}, // dup edges carry 0.1 and 0.9
	}}}
	info := cfg.Compute(fn)
	e := Compute(fn, info, prof)

	if got := e.Freq[dup]; math.Abs(got-0.7) > 1e-12 {
		t.Errorf("dup-edge block frequency = %g, want 0.7 (mass of both edges)", got)
	}
	if got := e.Freq[colder]; math.Abs(got-0.3) > 1e-12 {
		t.Errorf("colder block frequency = %g, want 0.3", got)
	}
	rank := map[*ir.Block]int{}
	for i, blk := range e.HotFirst() {
		rank[blk] = i
	}
	if rank[dup] > rank[colder] {
		t.Errorf("HotFirst ranks dup-edge block (%g) below colder block (%g)",
			e.Freq[dup], e.Freq[colder])
	}
}

// TestMissingEdgePanics pins the loud-failure half of the edgeMass fix: a
// predecessor list naming a block with no matching successor edge is a
// corrupted CFG and must not be silently scored as edge 0.
func TestMissingEdgePanics(t *testing.T) {
	b := ir.NewFunc("f")
	entry := b.Block()
	a := b.NewBlock()
	other := b.NewBlock()
	x := b.Const(ir.W32, 0)
	b.Br(ir.W32, ir.CondLT, x, x, a, other)
	b.SetBlock(a)
	b.Ret(ir.NoReg)
	b.SetBlock(other)
	b.Ret(ir.NoReg)
	_ = entry
	// Corrupt: other claims a as predecessor, but a has no edge to it.
	other.Preds = append(other.Preds, a)
	info := cfg.Compute(b.Fn)
	defer func() {
		if recover() == nil {
			t.Error("Compute silently accepted a pred with no matching successor edge")
		}
	}()
	Compute(b.Fn, info, nil)
}

// TestEpsilonFloorProfileStarved pins the frequency floor: a branch arm the
// profile never took used to propagate exactly zero into live blocks — here
// a reachable loop body — making order determination treat them as the
// coldest code in the function.
func TestEpsilonFloorProfileStarved(t *testing.T) {
	b := ir.NewFunc("f")
	entry := b.Block()
	head := b.NewBlock()
	body := b.NewBlock()
	exit := b.NewBlock()
	x := b.Const(ir.W32, 0)
	y := b.Const(ir.W32, 1)
	b.Br(ir.W32, ir.CondLT, x, y, head, exit)
	entryBr := entry.Term()
	b.SetBlock(head)
	b.Br(ir.W32, ir.CondLT, x, y, body, exit)
	b.SetBlock(body)
	b.Jmp(head)
	b.SetBlock(exit)
	b.Ret(ir.NoReg)
	fn := b.Fn

	// The profile saw the entry branch 5 times and never took the loop arm.
	prof := profile.Profile{"f": {Branches: map[int]profile.Counts{entryBr.ID: {Taken: 0, Fall: 5}}}}
	info := cfg.Compute(fn)
	e := Compute(fn, info, prof)
	for _, blk := range info.RPO {
		if e.Freq[blk] <= 0 {
			t.Errorf("reached block %s has frequency %g, want > 0", blk, e.Freq[blk])
		}
	}
	// The floor is scaled by loop depth, so the never-entered loop body still
	// ranks above the equally-starved straight-line code would.
	if e.Freq[body] <= e.Freq[head]/LoopScale*0.99 {
		t.Errorf("loop scaling lost on floored blocks: body=%g head=%g", e.Freq[body], e.Freq[head])
	}
}

// TestProgenReachedBlocksPositive is the fuzz-shaped regression test for the
// epsilon floor: across generated programs and real interpreter profiles,
// every block reachable from the entry must receive a positive frequency.
// Pre-fix, one-sided profiled branches in these seeds propagated exact
// zeros into live blocks (including nested loop bodies).
func TestProgenReachedBlocksPositive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, kind := range []string{"ir", "mj"} {
			var prog *ir.Program
			if kind == "ir" {
				prog = progen.IR(seed, progen.Config{})
			} else {
				cu, err := minijava.Compile(progen.MiniJava(seed, progen.Config{}))
				if err != nil {
					t.Fatalf("seed %d: frontend rejected generated program: %v", seed, err)
				}
				prog = cu.Prog
			}
			ref, err := interp.Run(prog, "main", interp.Options{Mode: interp.Mode32, Profile: true})
			if err != nil {
				continue // a trapping program still profiles what it ran; skip
			}
			for _, fn := range prog.Funcs {
				info := cfg.Compute(fn)
				e := Compute(fn, info, ref.Profile)
				for _, blk := range info.RPO {
					if e.Freq[blk] <= 0 {
						t.Errorf("seed %d kind %s fn %s: reached block %s has frequency %g",
							seed, kind, fn.Name, blk, e.Freq[blk])
					}
				}
			}
		}
	}
}

// buildDiamond: entry conditionally branches to two arms that rejoin.
func buildDiamond() (*ir.Func, *ir.Block, *ir.Block, *ir.Block, *ir.Instr) {
	b := ir.NewFunc("f")
	entry := b.Block()
	then := b.NewBlock()
	els := b.NewBlock()
	join := b.NewBlock()
	x := b.Const(ir.W32, 0)
	y := b.Const(ir.W32, 1)
	b.Br(ir.W32, ir.CondLT, x, y, then, els)
	br := entry.Term()
	b.SetBlock(then)
	b.Jmp(join)
	b.SetBlock(els)
	b.Jmp(join)
	b.SetBlock(join)
	b.Ret(ir.NoReg)
	return b.Fn, then, els, join, br
}

// TestSaturatedProfileNoOverflow pins the audit's int64-overflow fix: merged
// profiles saturate counts at MaxInt64, and the branch total used to be
// summed in int64 — MaxInt64 + 1 wraps negative, so the `total > 0` guard
// silently discarded the profile for exactly the hottest branches and fell
// back to the 50/50 static split.
func TestSaturatedProfileNoOverflow(t *testing.T) {
	fn, then, els, _, br := buildDiamond()
	prof := profile.Profile{"f": {Branches: map[int]profile.Counts{br.ID: {Taken: math.MaxInt64, Fall: 1}}}}
	info := cfg.Compute(fn)
	e := Compute(fn, info, prof)
	if e.Freq[then] < 0.999 {
		t.Errorf("saturated taken count ignored: then=%g (static fallback would give 0.5)", e.Freq[then])
	}
	if e.Freq[els] > 1e-3 {
		t.Errorf("saturated profile fall arm = %g, want ~0", e.Freq[els])
	}
}

// TestProfileArmsNormalized pins the arm normalization: with large merged
// counts, float64 rounding can make taken/total + fall/total land a few ulp
// off 1, so every branch leaked (or injected) frequency mass into its
// downstream region. Normalized arms restore exact mass conservation here:
// the join of a diamond must carry exactly the entry's frequency.
func TestProfileArmsNormalized(t *testing.T) {
	fn, then, els, join, br := buildDiamond()
	// These counts make float64(taken)/total + float64(fall)/total come out
	// below 1 (0.99999999999999988…) before normalization.
	prof := profile.Profile{"f": {Branches: map[int]profile.Counts{br.ID: {Taken: 2226407336114473942, Fall: 8407677068955557379}}}}
	info := cfg.Compute(fn)
	e := Compute(fn, info, prof)
	if got := e.Freq[then] + e.Freq[els]; got != 1 {
		t.Errorf("arm probabilities sum to %.20g, want exactly 1", got)
	}
	if got := e.Freq[join]; got != 1 {
		t.Errorf("diamond join frequency = %.20g, want exactly 1 (mass conserved)", got)
	}
	// Sanity: the skew itself must survive normalization.
	if e.Freq[els] < 3*e.Freq[then] {
		t.Errorf("normalization destroyed the profile skew: then=%g els=%g", e.Freq[then], e.Freq[els])
	}
}
