package opt

import (
	"testing"

	"signext/internal/extelim"
	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/progen"
)

// compileScaleStmts are the main-body sizes of the compile-scale corpus: one
// program per size, progen seeds 1-7, each with 8 narrow helpers.
var compileScaleStmts = []int{40, 60, 80, 100, 120, 140, 160}

// BenchmarkOptRun measures the general optimizer alone over the
// compile-scale corpus, inlined and converted as the jit pipeline hands it
// over. Each iteration optimizes fresh clones, made outside the timer.
func BenchmarkOptRun(b *testing.B) {
	var progs []*ir.Program
	for i, n := range compileScaleStmts {
		cu, err := minijava.Compile(progen.MiniJava(int64(i+1), progen.Config{Stmts: n, Funcs: 8}))
		if err != nil {
			b.Fatal(err)
		}
		InlineProgram(cu.Prog)
		for _, fn := range cu.Prog.Funcs {
			extelim.Convert64(fn, ir.IA64)
		}
		progs = append(progs, cu.Prog)
	}
	clones := make([]*ir.Program, len(progs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k, p := range progs {
			clones[k] = p.Clone()
		}
		b.StartTimer()
		for _, p := range clones {
			for _, fn := range p.Funcs {
				Run(fn)
			}
		}
	}
}
