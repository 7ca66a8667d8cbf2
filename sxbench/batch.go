package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"signext/internal/cfg"
	"signext/internal/chains"
	"signext/internal/extelim"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/opt"
	"signext/internal/peep"
	"signext/internal/target"
	"signext/internal/vrange"
)

// batchProg is one input of a batch workload: a MiniJava program and the
// output the reference interpreter gives for it.
type batchProg struct {
	name string
	src  string
	want string
}

// counts are a round's exact, repeatable outputs.
type counts struct {
	dynExts int64 // executed 32-bit sign extensions
	cycles  int64 // modelled machine cycles
	insns   int64 // target.Lower machine instructions over every compiled function
}

// batch is a closed-loop workload with one client: each op takes one program
// from MiniJava source to checked output. A round runs every program of a
// fixed corpus once, and a run only ever runs whole rounds, so every run times
// the same multiset of ops and its percentiles do not depend on the seed's
// program mix.
type batch struct {
	profile bool // a Mode32 profiling run feeds order determination
	peep    bool // the rule-table peephole pass runs after elimination

	progs []*batchProg // the corpus: the set-up round, then each timed round in a seeded order
	pins  counts       // what a round must give
}

// round returns the corpus in the next seeded order.
func (b *batch) round(rng *rand.Rand) []*batchProg {
	r := make([]*batchProg, len(b.progs))
	for i, k := range rng.Perm(len(b.progs)) {
		r[i] = b.progs[k]
	}
	return r
}

func (b *batch) options(prof interp.Profile) jit.Options {
	return jit.Options{Variant: jit.All, Machine: ir.IA64, GeneralOpts: true, Profile: prof, Peep: b.peep}
}

// outcome is one untraced op.
type outcome struct {
	compile time.Duration // frontend, profiling run and jit.Compile
	run     time.Duration // executing the compiled program
	res     *jit.Result
	out     *interp.Result
}

func (o outcome) degraded() bool { return len(o.res.Fallbacks)+len(o.res.Degraded) > 0 }

// op runs one program the way a user of the compiler does: frontend, the
// optional profiling run and jit.Compile, then execution of the compiled
// code. It fails when the output differs from the reference.
func (b *batch) op(bp *batchProg) (outcome, error) {
	var o outcome
	t0 := time.Now()
	cu, err := minijava.Compile(bp.src)
	if err != nil {
		return o, fmt.Errorf("%s: frontend: %w", bp.name, err)
	}
	var prof interp.Profile
	if b.profile {
		if prof, err = jit.ProfileRun(cu.Prog, "main", 0); err != nil {
			return o, fmt.Errorf("%s: profiling run: %w", bp.name, err)
		}
	}
	if o.res, err = jit.Compile(cu.Prog, b.options(prof)); err != nil {
		return o, fmt.Errorf("%s: compile: %w", bp.name, err)
	}
	t1 := time.Now()
	o.out, err = jit.Execute(o.res, "main")
	o.compile, o.run = t1.Sub(t0), time.Since(t1)
	if err != nil {
		return o, fmt.Errorf("%s: run: %w", bp.name, err)
	}
	if o.out.Output != bp.want {
		return o, fmt.Errorf("%s: output differs from the reference", bp.name)
	}
	return o, nil
}

// warmth is what one set-up round measured.
type warmth struct {
	wall  time.Duration
	total counts
	each  map[string]counts
	lower time.Duration // target.Lower over the round, after the clock stopped
}

// warmUp runs the set-up round once. Lowering, which only serves to count
// code_insns, runs after the clock stops: it is not on the compile path.
func (b *batch) warmUp() (warmth, error) {
	outs := make([]outcome, len(b.progs))
	t0 := time.Now()
	for i, bp := range b.progs {
		o, err := b.op(bp)
		if err == nil && o.degraded() {
			err = fmt.Errorf("%s: compile degraded", bp.name)
		}
		if err != nil {
			return warmth{}, fmt.Errorf("set-up: %w", err)
		}
		outs[i] = o
	}
	w := warmth{wall: time.Since(t0), each: map[string]counts{}}
	t1 := time.Now()
	for i, o := range outs {
		k := counts{dynExts: o.out.Ext32(), cycles: o.out.Cycles, insns: codeInsns(o.res.Prog)}
		w.each[b.progs[i].name] = k
		w.total.dynExts += k.dynExts
		w.total.cycles += k.cycles
		w.total.insns += k.insns
	}
	w.lower = time.Since(t1)
	return w, nil
}

// expect checks the dynamic counts of an op against what the set-up
// measured for its program: they must repeat exactly on every op.
func (w warmth) expect(bp *batchProg, out *interp.Result) error {
	if want := w.each[bp.name]; out.Ext32() != want.dynExts || out.Cycles != want.cycles {
		return fmt.Errorf("%s: %d extensions and %d cycles, set-up measured %d and %d",
			bp.name, out.Ext32(), out.Cycles, want.dynExts, want.cycles)
	}
	return nil
}

// runBatch sets up several times (setup_s is the median), checks the exact
// counts, then runs whole rounds until the window has passed.
func runBatch(p params, b *batch, rep *report) error {
	var setup []float64
	var first warmth
	for s := 0; s < p.setups; s++ {
		w, err := b.warmUp()
		if err != nil {
			return err
		}
		if s == 0 {
			first = w
		} else if w.total != first.total {
			rep.failf("exact counts changed between set-up rounds: %+v, then %+v", first.total, w.total)
		}
		setup = append(setup, w.wall.Seconds())
	}
	if !p.small && first.total != b.pins {
		rep.failf("exact counts %+v differ from the pinned %+v", first.total, b.pins)
	}
	rep.note("exact_counts dyn_exts=%d model_cycles=%d code_insns=%d over a round of %d programs",
		first.total.dynExts, first.total.cycles, first.total.insns, len(b.progs))
	rng := rand.New(rand.NewSource(p.seed))
	if p.traced {
		b.traced(p, rng, first, rep)
		return nil
	}
	rep.setSamples("setup_s", median(setup), setup)
	rep.set("dyn_exts", float64(first.total.dynExts))
	rep.set("model_cycles", float64(first.total.cycles))
	rep.set("code_insns", float64(first.total.insns))

	var lat []float64
	var errs, degraded, rounds int
	u0 := getUsage()
	start := time.Now()
	for ; time.Since(start) < p.seconds; rounds++ {
		for _, bp := range b.round(rng) {
			rep.attempted++
			t0 := time.Now()
			o, err := b.op(bp)
			lat = append(lat, ms(time.Since(t0)))
			if err == nil {
				err = first.expect(bp, o.out)
			}
			switch {
			case err != nil:
				errs++
				rep.failf("%v", err)
			case o.degraded():
				degraded++
				rep.failf("%s: compile degraded", bp.name)
			}
		}
	}
	window := time.Since(start)
	u1 := getUsage()
	rep.failed = errs + degraded
	n := float64(rep.attempted)
	rep.setSamples("latency_p50_ms", percentile(lat, 0.50), lat)
	rep.set("latency_p90_ms", percentile(lat, 0.90))
	rep.set("latency_p99_ms", percentile(lat, 0.99))
	rep.set("cpu_ms_per_op", ms(u1.cpu-u0.cpu)/n)
	rep.set("peak_rss_mb", float64(u1.maxRSS)/(1<<20))
	rep.note("rounds=%d ops=%d window_s=%.3f error_frac=%g degraded_frac=%g",
		rounds, rep.attempted, window.Seconds(), float64(errs)/n, float64(degraded)/n)
	return nil
}

// Span names of the traced batch pipeline that are not layer names: the op
// root, the compile container, and the chain + value-range construction
// time extelim.Eliminate reports about itself (Stats.ChainTime).
const (
	spanOp        = "op"
	spanJit       = "jit"
	spanChainTime = "extelim.chaintime"
)

// compileLayers are the traced spans whose self times make up compilation,
// the denominator of Table 3. The chains and vrange probes are not among
// them: they repeat work Eliminate does.
var compileLayers = []string{
	"jit.clone", "opt.inline", "extelim.convert", "opt", "extelim.elim", spanChainTime, "peep",
}

// layers accumulates the traced ops' counters.
type layers struct {
	srcBytes, optInsns, steps                 int64
	generated, removed, hoisted               int64
	eliminated, inserted, remaining, rewrites int64
}

// traced runs pairs of ops until the window has passed: a traced op and an
// untraced op of the same program, back to back. The pair gives the tracing
// overhead and the check that the traced pipeline compiles exactly what
// jit.Compile does.
func (b *batch) traced(p params, rng *rand.Rand, first warmth, rep *report) {
	tr := newTracer()
	rep.spans = tr
	var lay layers
	var tracedWall, plainWall time.Duration
	var compileMS, runMS []float64
	var errs, degraded, fallbacks, ops, rounds int
	start := time.Now()
	for ; time.Since(start) < p.seconds; rounds++ {
		for _, bp := range b.round(rng) {
			rep.attempted += 2
			t0 := time.Now()
			prog, out, terr := b.tracedOp(tr, ops, bp, &lay)
			tracedWall += time.Since(t0)
			t1 := time.Now()
			o, err := b.op(bp)
			plainWall += time.Since(t1)
			ops++
			if terr == nil {
				terr = first.expect(bp, out)
			}
			if err == nil {
				err = first.expect(bp, o.out)
			}
			if terr == nil && err == nil && formatProgram(prog) != formatProgram(o.res.Prog) {
				terr = fmt.Errorf("%s: the traced pipeline compiled other IR than jit.Compile", bp.name)
			}
			for _, e := range []error{terr, err} {
				if e != nil {
					errs++
					rep.failf("%v", e)
				}
			}
			if err != nil {
				continue
			}
			compileMS = append(compileMS, ms(o.compile))
			runMS = append(runMS, ms(o.run))
			fallbacks += len(o.res.Fallbacks)
			if o.degraded() {
				degraded++
				rep.failf("%s: compile degraded", bp.name)
			}
		}
	}
	rep.failed = errs + degraded

	opTimes := tr.times()
	sum := totals(opTimes)
	n := float64(ops)
	ns := func(names ...string) float64 {
		var d time.Duration
		for _, name := range names {
			d += sum[name]
		}
		return float64(d)
	}
	per := func(names ...string) float64 { return ns(names...) / 1e6 / n }
	rep.set("minijava.ms", per("minijava.parse", "minijava.lower"))
	rep.set("minijava.ns_per_byte", ratio(ns("minijava.parse", "minijava.lower"), float64(lay.srcBytes)))
	rep.set("opt.inline.ms", per("opt.inline"))
	rep.set("jit.clone_ms", per("jit.clone"))
	rep.set("opt.ms", per("opt"))
	rep.set("opt.ns_per_insn", ratio(ns("opt"), float64(lay.optInsns)))
	rep.set("opt.removed", float64(lay.removed)/n)
	rep.set("opt.hoisted", float64(lay.hoisted)/n)
	rep.set("extelim.convert_ms", per("extelim.convert"))
	rep.set("extelim.generated", float64(lay.generated)/n)
	rep.set("chains.ms", per("chains"))
	rep.set("vrange.ms", per("vrange"))
	rep.set("extelim.elim_ms", per("extelim.elim"))
	rep.set("extelim.eliminated", float64(lay.eliminated)/n)
	rep.set("extelim.inserted", float64(lay.inserted)/n)
	rep.set("extelim.remaining", float64(lay.remaining)/n)
	rep.set("extelim.elim_ratio", ratio(float64(lay.eliminated), float64(lay.generated+lay.inserted)))
	setTable3(rep, opTimes, "extelim.elim", spanChainTime, compileLayers)
	rep.set("peep.ms", per("peep"))
	rep.set("peep.rewrites", float64(lay.rewrites)/n)
	rep.set("guard.fallbacks", float64(fallbacks))
	rep.set("interp.profile_ms", per("interp.profile"))
	rep.set("interp.run_ms", per("interp.run"))
	rep.set("interp.steps", float64(lay.steps)/n)
	rep.set("interp.ns_per_step", ratio(ns("interp.profile", "interp.run"), float64(lay.steps)))
	rep.set("target.lower_ms", ms(first.lower)/float64(len(b.progs)))
	rep.set("trace.overhead_pct", 100*ratio(float64(tracedWall-plainWall), float64(plainWall)))
	rep.setSamples("op.compile_ms_p50", median(compileMS), compileMS)
	rep.setSamples("op.run_ms_p50", median(runMS), runMS)
	rep.set("op.error_frac", float64(errs)/float64(rep.attempted))
	rep.set("op.degraded_frac", float64(degraded)/float64(rep.attempted))
	rep.unattributed = unattributedPct(opTimes, spanOp, spanJit)
	rep.note("traced_ops=%d untraced_ops=%d rounds=%d trace_unattributed_pct=%.2f",
		ops, ops, rounds, rep.unattributed)
	rep.note("traced ops compile their functions on one goroutine; untraced ops use jit.Compile's worker pool")
}

// setTable3 sets the paper's Table 3 split from per-op self times: the sign
// extension phase proper and the shared chain + value-range construction,
// each as a percentage of compile time. The value is the median over the ops
// that ran the sign extension phase (on daemon-mixed, a cache hit does not);
// the quartiles go to the run record.
func setTable3(rep *report, ops map[int]*opTimes, signext, chainTime string, compile []string) {
	var sig, ch []float64
	for _, ot := range ops {
		var total time.Duration
		for _, name := range compile {
			total += ot.self[name]
		}
		if ot.self[signext] > 0 {
			sig = append(sig, 100*float64(ot.self[signext])/float64(total))
			ch = append(ch, 100*float64(ot.self[chainTime])/float64(total))
		}
	}
	rep.setSamples("table3.signext_pct", median(sig), sig)
	rep.setSamples("table3.chains_pct", median(ch), ch)
}

// tracedOp is op with a span around every call into a layer. It calls the
// layers' public entry points in the order jit.Compile does for one worker —
// including the pre-phase snapshot clones its guard takes — so its compiled
// program must print exactly like jit.Compile's. chains.Build and
// vrange.Compute run inside extelim.Eliminate as one reported duration
// (Stats.ChainTime), so they are also probed apart on the snapshot of
// Eliminate's input.
func (b *batch) tracedOp(tr *tracer, op int, bp *batchProg, lay *layers) (*ir.Program, *interp.Result, error) {
	root := tr.begin(op, -1, spanOp)
	defer tr.end(root)
	var ast *minijava.ProgramAST
	var cu *minijava.CompileUnit
	var err error
	tr.call(op, root, "minijava.parse", func() { ast, err = minijava.Parse(bp.src) })
	if err == nil {
		tr.call(op, root, "minijava.lower", func() { cu, err = minijava.Lower(ast) })
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: frontend: %w", bp.name, err)
	}
	lay.srcBytes += int64(len(bp.src))
	var prof interp.Profile
	if b.profile {
		var pr *interp.Result
		tr.call(op, root, "interp.profile", func() {
			pr, err = interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32, Profile: true})
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: profiling run: %w", bp.name, err)
		}
		prof = pr.Profile
		lay.steps += pr.Steps
	}

	jc := tr.begin(op, root, spanJit)
	call := func(name string, f func()) { tr.call(op, jc, name, f) }
	var prog *ir.Program
	call("jit.clone", func() { prog = cu.Prog.Clone() })
	call("opt.inline", func() { opt.InlineProgram(prog) })
	// jit.All's elimination switches.
	elim := extelim.Config{Machine: ir.IA64, Insert: true, Order: true, Array: true, Profile: prof}
	for _, fn := range prog.Funcs {
		call("extelim.convert", func() { lay.generated += int64(extelim.Convert64(fn, ir.IA64)) })
		call("jit.clone", func() { fn.Clone() })
		lay.optInsns += int64(countInsns(fn))
		var ost opt.Stats
		call("opt", func() { ost = opt.Run(fn) })
		lay.removed += int64(ost.Dead)
		lay.hoisted += int64(ost.Hoisted)
		var snap *ir.Func
		call("jit.clone", func() { snap = fn.Clone() })
		el := tr.begin(op, jc, "extelim.elim")
		st := extelim.Eliminate(fn, elim)
		tr.end(el)
		tr.add(el, spanChainTime, st.ChainTime)
		lay.eliminated += int64(st.Eliminated)
		lay.inserted += int64(st.Inserted)
		var info *cfg.Info
		var ch *chains.Chains
		call("chains", func() { info = cfg.Compute(snap); ch = chains.Build(snap, info) })
		call("vrange", func() { vrange.Compute(snap, ch, info, ir.IA64, 0) })
		if b.peep {
			call("jit.clone", func() { fn.Clone() })
			call("peep", func() { lay.rewrites += int64(peep.Run(fn, peep.Config{Machine: ir.IA64}).Rewrites) })
		}
		lay.remaining += int64(fn.CountOp(ir.OpExt))
	}
	tr.end(jc)

	var out *interp.Result
	tr.call(op, root, "interp.run", func() {
		out, err = interp.Run(prog, "main", interp.Options{
			Mode: interp.Mode64, Machine: ir.IA64, Cost: target.CostModel(ir.IA64),
		})
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: traced run: %w", bp.name, err)
	}
	lay.steps += out.Steps
	if out.Output != bp.want {
		return nil, nil, fmt.Errorf("%s: traced output differs from the reference", bp.name)
	}
	return prog, out, nil
}

func countInsns(fn *ir.Func) int {
	n := 0
	for _, blk := range fn.Blocks {
		n += len(blk.Instrs)
	}
	return n
}

// codeInsns counts the machine instructions target.Lower produces for every
// function of p.
func codeInsns(p *ir.Program) int64 {
	var n int64
	for _, fn := range p.Funcs {
		for _, blk := range target.Lower(fn, ir.IA64).Blocks {
			n += int64(len(blk.Instrs))
		}
	}
	return n
}

// formatProgram renders a program in its canonical textual form.
func formatProgram(p *ir.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "globals %d\n", p.NGlobals)
	for _, fn := range p.Funcs {
		sb.WriteString(fn.Format())
		sb.WriteByte('\n')
	}
	return sb.String()
}
