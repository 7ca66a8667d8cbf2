package chains

import (
	"sort"
	"testing"

	"signext/internal/cfg"
	"signext/internal/dataflow"
	"signext/internal/ir"
)

// buildLoop constructs the canonical shape chains must get right:
//
//	b0: i = 0;           jmp b1
//	b1: i = i + p0
//	    i = ext.32 i     <- candidate
//	    print? no: br i < p0 -> b1, b2
//	b2: i2d i; ret
func buildLoop() (*ir.Func, *ir.Instr, *ir.Instr, *ir.Instr) {
	b := ir.NewFunc("c", ir.Param{W: ir.W32})
	i := b.Fn.NewReg()
	init := b.ConstTo(ir.W32, i, 0)
	loop, exit := b.NewBlock(), b.NewBlock()
	b.Jmp(loop)
	b.SetBlock(loop)
	add := b.OpTo(ir.OpAdd, ir.W32, i, i, ir.Reg(0))
	ext := b.Ext(ir.W32, i)
	b.Br(ir.W32, ir.CondLT, i, ir.Reg(0), loop, exit)
	b.SetBlock(exit)
	d := b.I2D(i)
	b.FPrint(d)
	b.Ret(ir.NoReg)
	return b.Fn, init, add, ext
}

func TestUDChains(t *testing.T) {
	fn, init, add, ext := buildLoop()
	info := cfg.Compute(fn)
	c := Build(fn, info)

	// The add's i operand sees the init and (around the back edge) the ext.
	defs := c.UD(add, 0)
	if len(defs) != 2 {
		t.Fatalf("defs of i at the add: %v", defs)
	}
	want := map[*ir.Instr]bool{init: true, ext: true}
	for _, d := range defs {
		if d.IsParam() || !want[d.Instr] {
			t.Fatalf("unexpected def %v", d)
		}
	}
	// The ext's source is defined only by the add.
	defs = c.UD(ext, 0)
	if len(defs) != 1 || defs[0].Instr != add {
		t.Fatalf("defs at ext: %v", defs)
	}
	// The add's second operand is the parameter.
	defs = c.UD(add, 1)
	if len(defs) != 1 || !defs[0].IsParam() {
		t.Fatalf("param def: %v", defs)
	}
}

func TestDUChains(t *testing.T) {
	fn, init, add, ext := buildLoop()
	info := cfg.Compute(fn)
	c := Build(fn, info)
	_ = fn

	// init reaches only the add (the ext kills it within the loop).
	uses := c.DU(init)
	if len(uses) != 1 || uses[0].Instr != add || uses[0].OpIdx != 0 {
		t.Fatalf("DU(init): %v", uses)
	}
	// The ext's value is used by the branch, the i2d and the add (back
	// edge).
	uses = c.DU(ext)
	ops := map[ir.Op]bool{}
	for _, u := range uses {
		ops[u.Instr.Op] = true
	}
	if !ops[ir.OpBr] || !ops[ir.OpI2D] || !ops[ir.OpAdd] {
		t.Fatalf("DU(ext) incomplete: %v", uses)
	}
}

func TestRemoveSameRegExtPatches(t *testing.T) {
	fn, _, add, ext := buildLoop()
	info := cfg.Compute(fn)
	c := Build(fn, info)
	c.RemoveSameRegExt(ext)

	if ext.Blk != nil {
		t.Fatal("ext not removed from its block")
	}
	// After patching, the chains must equal a fresh rebuild.
	fresh := Build(fn, cfg.Compute(fn))
	compareChains(t, fn, c, fresh)

	// The add's downstream uses now come straight from the add.
	uses := c.DU(add)
	ops := map[ir.Op]int{}
	for _, u := range uses {
		ops[u.Instr.Op]++
	}
	if ops[ir.OpBr] != 1 || ops[ir.OpI2D] != 1 || ops[ir.OpAdd] != 1 {
		t.Fatalf("DU(add) after patch: %v", uses)
	}
}

// compareChains asserts c matches fresh on every use site and def site.
func compareChains(t *testing.T, fn *ir.Func, c, fresh *Chains) {
	t.Helper()
	fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
		for op := 0; op < ins.NumUses(); op++ {
			a := normalizeDefs(c.UD(ins, op))
			b := normalizeDefs(fresh.UD(ins, op))
			if !sameStrings(a, b) {
				t.Errorf("UD(%v, %d): patched %v, fresh %v", ins, op, a, b)
			}
		}
		if ins.HasDst() {
			a := normalizeUses(c.DU(ins))
			b := normalizeUses(fresh.DU(ins))
			if !sameStrings(a, b) {
				t.Errorf("DU(%v): patched %v, fresh %v", ins, a, b)
			}
		}
	})
	for p := 0; p < fn.NParams(); p++ {
		a := normalizeUses(c.DUOfParam(p))
		b := normalizeUses(fresh.DUOfParam(p))
		if !sameStrings(a, b) {
			t.Errorf("DUOfParam(%d): patched %v, fresh %v", p, a, b)
		}
	}
}

func normalizeDefs(ds []dataflow.DefSite) []string {
	out := make([]string, 0, len(ds))
	for _, d := range ds {
		if d.IsParam() {
			out = append(out, "param:"+d.Reg.String())
		} else {
			out = append(out, d.Instr.String())
		}
	}
	sort.Strings(out)
	return out
}

func normalizeUses(us []UseSite) []string {
	out := make([]string, 0, len(us))
	for _, u := range us {
		out = append(out, u.Instr.String()+"#"+string(rune('0'+u.OpIdx)))
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// buildChained is the stale-chain trap of the elimination phase: two chained
// same-register extensions over a dirty definition,
//
//	r  = p0 + p0      <- dirty (32-bit add leaves undefined upper bits)
//	e1 = ext.32 r     <- removable: its only use (e2) reads the low word
//	e2 = ext.32 r     <- required: the div reads the full register
//	q  = div.64 r, r
//
// After e1 is removed, e2's UD chain must point at the dirty add; if it kept
// pointing at the removed e1 ("source already extended"), e2 would wrongly be
// eliminated and the div would read dirty upper bits.
func buildChained() (*ir.Func, *ir.Instr, *ir.Instr, *ir.Instr, *ir.Instr) {
	b := ir.NewFunc("chained", ir.Param{W: ir.W32})
	r := b.Fn.NewReg()
	dirty := b.OpTo(ir.OpAdd, ir.W32, r, ir.Reg(0), ir.Reg(0))
	e1 := b.Ext(ir.W32, r)
	e2 := b.Ext(ir.W32, r)
	q := b.Div(ir.W64, r, r)
	div := b.Block().Instrs[len(b.Block().Instrs)-1]
	b.Print(ir.W64, q)
	b.Ret(ir.NoReg)
	return b.Fn, dirty, e1, e2, div
}

func TestChainedSameRegExtRemoveFirst(t *testing.T) {
	fn, dirty, e1, e2, div := buildChained()
	info := cfg.Compute(fn)
	c := Build(fn, info)
	c.RemoveSameRegExt(e1)

	// e2's source must now be fed by the dirty add — not by the removed e1.
	defs := c.UD(e2, 0)
	if len(defs) != 1 || defs[0].IsParam() || defs[0].Instr != dirty {
		t.Fatalf("UD(e2) after removing e1: %v (want the dirty add)", defs)
	}
	for _, d := range defs {
		if !d.IsParam() && d.Instr == e1 {
			t.Fatalf("stale UD chain: e2 still fed by the removed e1")
		}
	}
	// The dirty add's DU chain must reach e2 directly.
	found := false
	for _, u := range c.DU(dirty) {
		if u.Instr == e2 {
			found = true
		}
		if u.Instr == e1 {
			t.Fatalf("stale DU chain: removed e1 still listed as a use of the add")
		}
	}
	if !found {
		t.Fatalf("DU(dirty add) not re-attached to e2: %v", c.DU(dirty))
	}
	// The removed extension's own entries must be gone and the whole
	// structure internally consistent and equal to a fresh rebuild.
	if got := c.DU(e1); len(got) != 0 {
		t.Fatalf("removed e1 still has DU entries: %v", got)
	}
	if got := c.UD(e1, 0); len(got) != 0 {
		t.Fatalf("removed e1 still has UD entries: %v", got)
	}
	if err := c.Check(); err != nil {
		t.Fatalf("patched chains inconsistent: %v", err)
	}
	compareChains(t, fn, c, Build(fn, cfg.Compute(fn)))
	_ = div
}

func TestChainedSameRegExtRemoveSecond(t *testing.T) {
	fn, _, e1, e2, div := buildChained()
	info := cfg.Compute(fn)
	c := Build(fn, info)
	c.RemoveSameRegExt(e2)

	// The div's operands must now be fed by e1.
	for op := 0; op < 2; op++ {
		defs := c.UD(div, op)
		if len(defs) != 1 || defs[0].IsParam() || defs[0].Instr != e1 {
			t.Fatalf("UD(div, %d) after removing e2: %v (want e1)", op, defs)
		}
	}
	if err := c.Check(); err != nil {
		t.Fatalf("patched chains inconsistent: %v", err)
	}
	compareChains(t, fn, c, Build(fn, cfg.Compute(fn)))
}

// TestRemovalSequenceMatchesRebuild removes every same-register extension of
// a richer function one at a time, comparing the patched chains against a
// fresh rebuild after each removal — the invariant the elimination phase
// relies on.
func TestRemovalSequenceMatchesRebuild(t *testing.T) {
	b := ir.NewFunc("seq", ir.Param{W: ir.W32}, ir.Param{Ref: true})
	i := b.Fn.NewReg()
	s := b.Fn.NewReg()
	b.ConstTo(ir.W32, i, 0)
	b.ConstTo(ir.W32, s, 0)
	loop, exit := b.NewBlock(), b.NewBlock()
	b.Jmp(loop)
	b.SetBlock(loop)
	one := b.Const(ir.W32, 1)
	b.OpTo(ir.OpAdd, ir.W32, i, i, one)
	e1 := b.Ext(ir.W32, i)
	v := b.ArrLoad(ir.W32, false, ir.Reg(1), i)
	e2 := b.Ext(ir.W32, v)
	b.OpTo(ir.OpAdd, ir.W32, s, s, v)
	e3 := b.Ext(ir.W32, s)
	b.Br(ir.W32, ir.CondLT, i, ir.Reg(0), loop, exit)
	b.SetBlock(exit)
	b.Print(ir.W32, s)
	b.Ret(ir.NoReg)

	fn := b.Fn
	info := cfg.Compute(fn)
	c := Build(fn, info)
	for _, ext := range []*ir.Instr{e2, e1, e3} {
		c.RemoveSameRegExt(ext)
		fresh := Build(fn, cfg.Compute(fn))
		compareChains(t, fn, c, fresh)
	}
}

// TestDiff: Diff accepts two builds of one function and reports a dropped
// UD edge, the corruption guard.Injector.CorruptChain plants.
func TestDiff(t *testing.T) {
	fn, _, add, _ := buildLoop()
	info := cfg.Compute(fn)
	c := Build(fn, info)
	if err := Diff(c, Build(fn, info)); err != nil {
		t.Fatalf("two builds differ: %v", err)
	}
	if !c.DropUDEdge(add, 0) {
		t.Fatal("no UD edge to drop")
	}
	if err := Diff(c, Build(fn, info)); err == nil {
		t.Fatal("Diff missed a dropped UD edge")
	}
}

// TestNoChainsForLaterInstructions: an instruction created after Build, an
// operand index past those an instruction had at Build, and an extension
// removed through RemoveSameRegExt all read as having no chains.
func TestNoChainsForLaterInstructions(t *testing.T) {
	fn, _, add, ext := buildLoop()
	c := Build(fn, cfg.Compute(fn))

	late := fn.NewInstr(ir.OpMov)
	late.Dst, late.Srcs[0], late.NSrcs = add.Dst, add.Dst, 1
	ext.Blk.InsertAfter(ext, late)
	if got := c.UD(late, 0); got != nil {
		t.Errorf("UD of an instruction made after Build: %v", got)
	}
	if got := c.DU(late); got != nil {
		t.Errorf("DU of an instruction made after Build: %v", got)
	}
	if got := c.UD(add, add.NumUses()); got != nil {
		t.Errorf("UD of an operand past the add's last: %v", got)
	}
	late.Blk.Remove(late)

	c.RemoveSameRegExt(ext)
	if c.UD(ext, 0) != nil || c.DU(ext) != nil {
		t.Errorf("removed extension still has chains: UD %v, DU %v", c.UD(ext, 0), c.DU(ext))
	}
}
