package vrange_test

import (
	"slices"
	"testing"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/extelim"
	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/opt"
	"signext/internal/progen"
	. "signext/internal/vrange"
)

// TestLongChainConverges: a straight chain of 70 blocks each doing
// "x = add.32 x, 1", laid out in reverse, moves one block per pass. A solve
// capped at 60 passes left the last definition bottom, which is vacuously
// "within" every interval; running until nothing changes gets it exact.
func TestLongChainConverges(t *testing.T) {
	const n = 70
	b := ir.NewFunc("chain")
	x := b.Fn.NewReg()
	b.ConstTo(ir.W32, x, 0)
	blocks := make([]*ir.Block, n)
	for k := range blocks {
		blocks[k] = b.NewBlock()
	}
	b.Jmp(blocks[0])
	var last *ir.Instr
	for k, blk := range blocks {
		b.SetBlock(blk)
		last = b.OpTo(ir.OpAdd, ir.W32, x, x, b.Const(ir.W32, 1))
		if k+1 < n {
			b.Jmp(blocks[k+1])
		}
	}
	b.Print(ir.W32, x)
	b.Ret(ir.NoReg)
	slices.Reverse(b.Fn.Blocks[1:])
	if err := b.Fn.Verify(); err != nil {
		t.Fatal(err)
	}
	info := cfg.Compute(b.Fn)
	a := Compute(b.Fn, chains.Build(b.Fn, info), info, ir.IA64, 0)
	if r, ok := a.OfDefRange(last); !ok || r != Const(n) {
		t.Fatalf("last definition's range %v (ok %v), want [%d,%d]", r, ok, n, n)
	}
}

// benchFunc returns a fixed loop-rich function as the general optimizations
// leave it: the largest of progen seed 5's at 160 statements, 8 helpers.
func benchFunc(tb testing.TB) (*ir.Func, *cfg.Info, *chains.Chains) {
	tb.Helper()
	cu, err := minijava.Compile(progen.MiniJava(5, progen.Config{Stmts: 160, Funcs: 8}))
	if err != nil {
		tb.Fatal(err)
	}
	var fn *ir.Func
	for _, f := range cu.Prog.Funcs {
		if fn == nil || f.NumInstrIDs() > fn.NumInstrIDs() {
			fn = f
		}
	}
	extelim.Convert64(fn, ir.IA64)
	opt.Run(fn)
	info := cfg.Compute(fn)
	return fn, info, chains.Build(fn, info)
}

func BenchmarkCompute(b *testing.B) {
	fn, info, ch := benchFunc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(fn, ch, info, ir.IA64, 0)
	}
}

// maxComputeAllocs bounds the allocations of one Compute of benchFunc:
// 19 measured, plus a margin of 6 for a table added or an append that grows.
// The tables are laid out once per call, so the count does not grow with the
// passes the solve makes; the map-based round-robin solve allocated 2704
// times on this function.
const maxComputeAllocs = 25

func TestComputeAllocs(t *testing.T) {
	fn, info, ch := benchFunc(t)
	a := Compute(fn, ch, info, ir.IA64, 0)
	t.Logf("%d instructions, %d evaluations", fn.NumInstrIDs(), a.Evals)
	got := testing.AllocsPerRun(20, func() { Compute(fn, ch, info, ir.IA64, 0) })
	if got > maxComputeAllocs {
		t.Fatalf("Compute allocates %.0f times per call, want at most %d", got, maxComputeAllocs)
	}
}
