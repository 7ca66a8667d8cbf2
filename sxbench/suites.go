package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"signext/internal/interp"
	"signext/internal/minijava"
	"signext/internal/progen"
	kernels "signext/internal/workloads"
)

// paperRefs is the expected output of every paper-suite kernel, made by the
// Mode32 tree-walker; TestPaperSuiteReferences re-derives it.
//
//go:embed testdata/paper_suite_refs.json
var paperRefs []byte

// paperPins are the exact counts of one paper-suite round: variant all on
// ia64, order determination fed by the profiling run.
var paperPins = counts{dynExts: 159743, cycles: 39567864, insns: 5529}

// compileScalePins are the exact counts of one compile-scale round: variant
// all on ia64, peephole pass on.
var compileScalePins = counts{dynExts: 985, cycles: 475271, insns: 15933}

// reference is the expected output of src: the Mode32 tree-walker
// (interp.DispatchSwitch) run on the frontend's 32-bit-form program. It
// shares no code with jit or the bytecode engine.
func reference(src string) (string, error) {
	cu, err := minijava.Compile(src)
	if err != nil {
		return "", err
	}
	res, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32, Dispatch: interp.DispatchSwitch})
	if err != nil {
		return "", err
	}
	return res.Output, nil
}

// genProg generates a progen program and its reference output.
func genProg(seed int64, c progen.Config) (*batchProg, error) {
	src := progen.MiniJava(seed, c)
	want, err := reference(src)
	if err != nil {
		return nil, fmt.Errorf("progen seed %d: reference run: %w", seed, err)
	}
	return &batchProg{name: fmt.Sprintf("progen-%d-stmts%d", seed, c.Stmts), src: src, want: want}, nil
}

// runPaperSuite runs the paper's 17 kernels in whole rounds, each round in a
// seeded order. Each op is a Mode32 profiling run, jit.Compile (default
// worker pool, no cache, no peephole pass) and execution.
func runPaperSuite(p params) (*report, error) {
	var refs map[string]string
	if err := json.Unmarshal(paperRefs, &refs); err != nil {
		return nil, fmt.Errorf("reference outputs: %w", err)
	}
	var progs []*batchProg
	for _, w := range kernels.All() {
		want, ok := refs[w.Name]
		if !ok {
			return nil, fmt.Errorf("no reference output for %s", w.Name)
		}
		progs = append(progs, &batchProg{name: w.Name, src: w.Source, want: want})
	}
	b := &batch{profile: true, progs: progs, pins: paperPins}
	rep := newReport()
	rep.note("params kernels=%d order=seeded-per-round variant=all machine=ia64 profile=mode32 cache=off peep=off parallelism=gomaxprocs",
		len(progs))
	return rep, runBatch(p, b, rep)
}

// compileScaleStmts are the main-body sizes of the compile-scale corpus, one
// program each. Compile time grows faster than program size, so the corpus
// spans the range.
var compileScaleStmts = []int{40, 60, 80, 100, 120, 140, 160}

const compileScaleFuncs = 8 // narrow-typed helpers per program

// runCompileScale compiles progen programs, one per op, with the peephole
// pass on, and runs each once. Nearly all of an op is compilation. The corpus
// has fixed progen seeds: compile time varies several-fold between programs
// of one size, so a corpus drawn from --seed gave each run a different mix
// and moved the latency percentiles with the seed. --seed orders each round, as on paper-suite; nothing is cached, so a repeated program
// costs a full compile.
func runCompileScale(p params) (*report, error) {
	stmts := compileScaleStmts
	if p.small {
		stmts = []int{6, 12}
	}
	progs := make([]*batchProg, len(stmts))
	for i, n := range stmts {
		bp, err := genProg(int64(i+1), progen.Config{Stmts: n, Funcs: compileScaleFuncs})
		if err != nil {
			return nil, err
		}
		progs[i] = bp
	}
	b := &batch{peep: true, progs: progs, pins: compileScalePins}
	rep := newReport()
	rep.note("params stmts=%v funcs=%d order=seeded-per-round variant=all machine=ia64 profile=none cache=off peep=on parallelism=gomaxprocs",
		stmts, compileScaleFuncs)
	return rep, runBatch(p, b, rep)
}
