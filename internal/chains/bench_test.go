package chains

import (
	"testing"

	"signext/internal/cfg"
	"signext/internal/ir"
)

// benchLadder builds a chain-heavy function: k sequential blocks each
// redefining a rotating set of registers.
func benchLadder(nBlocks, nRegs int) *ir.Func {
	b := ir.NewFunc("ladder", ir.Param{W: ir.W32})
	regs := make([]ir.Reg, nRegs)
	for i := range regs {
		regs[i] = b.Fn.NewReg()
		b.ConstTo(ir.W32, regs[i], int64(i))
	}
	prev := b.Block()
	for k := 0; k < nBlocks; k++ {
		nb := b.Fn.NewBlock()
		b.Jmp(nb)
		b.SetBlock(nb)
		r := regs[k%nRegs]
		b.OpTo(ir.OpAdd, ir.W32, r, r, regs[(k+1)%nRegs])
		b.Ext(ir.W32, r)
		_ = prev
		prev = nb
	}
	for _, r := range regs {
		b.Print(ir.W32, r)
	}
	b.Ret(ir.NoReg)
	return b.Fn
}

func BenchmarkBuildChains(b *testing.B) {
	fn := benchLadder(120, 12)
	info := cfg.Compute(fn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(fn, info)
	}
}

func BenchmarkRemoveSameRegExt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fn := benchLadder(60, 8)
		info := cfg.Compute(fn)
		c := Build(fn, info)
		var exts []*ir.Instr
		fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
			if ins.IsExt() {
				exts = append(exts, ins)
			}
		})
		b.StartTimer()
		for _, e := range exts {
			c.RemoveSameRegExt(e)
		}
	}
}

// maxBuildAllocs bounds the allocations of one Build of benchLadder(120, 12):
// 21 measured, plus a margin of 5 for a table added or an append that grows.
// Build used to allocate 1530 times on this function, a map entry or list
// growth per edge; the dense layout allocates a fixed set of tables.
const maxBuildAllocs = 26

func TestBuildAllocs(t *testing.T) {
	fn := benchLadder(120, 12)
	info := cfg.Compute(fn)
	got := testing.AllocsPerRun(20, func() { Build(fn, info) })
	if got > maxBuildAllocs {
		t.Fatalf("Build allocates %.0f times per call, want at most %d", got, maxBuildAllocs)
	}
}
