package cfg

import (
	"testing"

	"signext/internal/ir"
)

// buildNested constructs a doubly nested loop:
//
//	entry -> outerHead -> innerHead -> innerBody -> innerHead
//	                      innerExit -> outerLatch -> outerHead
//	outerExit -> ret
func buildNested() (*ir.Func, map[string]*ir.Block) {
	b := ir.NewFunc("nest", ir.Param{W: ir.W32})
	n := ir.Reg(0)
	i := b.Fn.NewReg()
	j := b.Fn.NewReg()
	b.ConstTo(ir.W32, i, 0)
	outerHead := b.NewBlock()
	innerHead := b.NewBlock()
	innerBody := b.NewBlock()
	outerLatch := b.NewBlock()
	exit := b.NewBlock()
	b.Jmp(outerHead)
	b.SetBlock(outerHead)
	b.ConstTo(ir.W32, j, 0)
	b.Br(ir.W32, ir.CondLT, i, n, innerHead, exit)
	b.SetBlock(innerHead)
	b.Br(ir.W32, ir.CondLT, j, n, innerBody, outerLatch)
	b.SetBlock(innerBody)
	one := b.Const(ir.W32, 1)
	b.OpTo(ir.OpAdd, ir.W32, j, j, one)
	b.Jmp(innerHead)
	b.SetBlock(outerLatch)
	one2 := b.Const(ir.W32, 1)
	b.OpTo(ir.OpAdd, ir.W32, i, i, one2)
	b.Jmp(outerHead)
	b.SetBlock(exit)
	b.Ret(ir.NoReg)
	return b.Fn, map[string]*ir.Block{
		"entry": b.Fn.Entry(), "outerHead": outerHead, "innerHead": innerHead,
		"innerBody": innerBody, "outerLatch": outerLatch, "exit": exit,
	}
}

func TestRPOStartsAtEntry(t *testing.T) {
	fn, _ := buildNested()
	info := Compute(fn)
	if info.RPO[0] != fn.Entry() {
		t.Fatal("RPO must start at entry")
	}
	if len(info.RPO) != len(fn.Blocks) {
		t.Fatalf("RPO covers %d of %d blocks", len(info.RPO), len(fn.Blocks))
	}
	// Every block except loop headers appears after all its predecessors.
	for _, b := range info.RPO {
		for _, p := range b.Preds {
			if info.RPONum[p.ID] > info.RPONum[b.ID] && !info.Dominates(b, p) {
				t.Errorf("%v before its non-backedge predecessor %v", b, p)
			}
		}
	}
}

func TestDominators(t *testing.T) {
	fn, m := buildNested()
	info := Compute(fn)
	cases := []struct {
		a, b string
		want bool
	}{
		{"entry", "exit", true},
		{"outerHead", "innerBody", true},
		{"innerHead", "innerBody", true},
		{"innerBody", "outerLatch", false},
		{"innerHead", "outerLatch", true},
		{"outerLatch", "outerHead", false},
		{"exit", "exit", true},
	}
	for _, c := range cases {
		if got := info.Dominates(m[c.a], m[c.b]); got != c.want {
			t.Errorf("Dominates(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if info.IDom[m["innerBody"].ID] != m["innerHead"] {
		t.Errorf("idom(innerBody) = %v", info.IDom[m["innerBody"].ID])
	}
}

func TestLoopNesting(t *testing.T) {
	fn, m := buildNested()
	info := Compute(fn)
	if len(info.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(info.Loops))
	}
	if !info.HasLoop() {
		t.Fatal("HasLoop")
	}
	if d := info.Depth(m["innerBody"]); d != 2 {
		t.Errorf("depth(innerBody) = %d, want 2", d)
	}
	if d := info.Depth(m["outerLatch"]); d != 1 {
		t.Errorf("depth(outerLatch) = %d, want 1", d)
	}
	if d := info.Depth(m["exit"]); d != 0 {
		t.Errorf("depth(exit) = %d, want 0", d)
	}
	if d := info.Depth(m["innerHead"]); d != 2 {
		t.Errorf("depth(innerHead) = %d, want 2", d)
	}
	// The inner loop's parent is the outer loop.
	var inner *Loop
	for _, l := range info.Loops {
		if l.Header == m["innerHead"] {
			inner = l
		}
	}
	if inner == nil || inner.Parent == nil || inner.Parent.Header != m["outerHead"] {
		t.Fatal("inner loop's parent not detected")
	}
}

func TestPreheader(t *testing.T) {
	fn, m := buildNested()
	info := Compute(fn)
	for _, l := range info.Loops {
		switch l.Header {
		case m["outerHead"]:
			if got := l.Preheader(); got != m["entry"] {
				t.Errorf("outer preheader = %v", got)
			}
		case m["innerHead"]:
			if got := l.Preheader(); got != m["outerHead"] {
				// outerHead branches (two successors) so it cannot serve as
				// a preheader; nil is also acceptable only if outerHead has
				// 2 succs — which it does.
				if got != nil {
					t.Errorf("inner preheader = %v", got)
				}
			}
		}
	}
}

func TestStraightLine(t *testing.T) {
	b := ir.NewFunc("s")
	b.Print(ir.W32, b.Const(ir.W32, 1))
	b.Ret(ir.NoReg)
	info := Compute(b.Fn)
	if info.HasLoop() {
		t.Fatal("straight-line code has no loops")
	}
	if len(info.PostOrder()) != 1 {
		t.Fatal("postorder size")
	}
}

func TestUnreachableBlockIgnored(t *testing.T) {
	b := ir.NewFunc("u")
	b.Ret(ir.NoReg)
	dead := b.NewBlock()
	b.SetBlock(dead)
	b.Ret(ir.NoReg)
	info := Compute(b.Fn)
	if info.Reached[dead] {
		t.Fatal("unreachable block marked reached")
	}
	if len(info.RPO) != 1 {
		t.Fatalf("RPO should hold only reachable blocks, got %d", len(info.RPO))
	}
}
