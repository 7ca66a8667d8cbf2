// Package difftest is the differential and metamorphic testing engine for
// the sign extension elimination pipeline. For each generated program it
// checks, against the real jit pipeline, every property in the properties
// table: the differential oracle (the fully eliminated build must reproduce
// the unoptimized Convert64-only build bit-for-bit), the 32-bit reference,
// and metamorphic properties that compare two ways of producing the same
// result. Each table entry says which programs it checks by default and
// when named in Config.Props; Check, the shrink predicates, corpus and
// reproducer replay and cmd/sxfuzz's -props/-list all read the table.
//
// Failures are minimized by the shrinker (shrink.go) and persisted as
// self-contained reproducers (repro.go) which regress_test.go replays as
// ordinary go tests. Campaign (campaign.go) drives timed multi-worker runs;
// cmd/sxfuzz is its CLI.
package difftest

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"signext/internal/codecache"
	"signext/internal/extelim"
	"signext/internal/guard"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/progen"
	"signext/internal/target"
	"signext/internal/tiered"
)

// Program is one differential-test subject: a 32-bit-form IR program, plus
// the seed and generator kind that reproduce it.
type Program struct {
	Seed   int64
	Kind   string      // "mj" (via the MiniJava frontend) or "ir" (direct)
	Source string      // MiniJava source when Kind == "mj"
	Prog   *ir.Program // 32-bit form (frontend output)
}

// Generate builds the subject for one (seed, kind) pair. kind "mj" runs the
// progen MiniJava generator through the real frontend; kind "ir" uses the
// direct IR generator. A frontend rejection of a generated program is a
// generator bug and comes back as an error.
func Generate(seed int64, kind string, gen progen.Config) (*Program, error) {
	switch kind {
	case "mj":
		src := progen.MiniJava(seed, gen)
		cu, err := minijava.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("difftest: seed %d: frontend rejected generated source: %w", seed, err)
		}
		return &Program{Seed: seed, Kind: kind, Source: src, Prog: cu.Prog}, nil
	case "ir":
		return &Program{Seed: seed, Kind: kind, Prog: progen.IR(seed, gen)}, nil
	}
	return nil, fmt.Errorf("difftest: unknown program kind %q", kind)
}

// Config selects which properties Check runs and their budgets.
type Config struct {
	Machines []ir.Machine // default {IA64, PPC64}
	MaxSteps int64        // per interpreter run (default 50M)

	// Props names the opt-in properties (OptIns) to add to the default set;
	// each then runs on the programs its table entry gives when named.
	Props []string

	// PeepRules restricts the peep-identity property's pass to the named
	// rules (nil = the whole table) — the focused mode for replaying a
	// directed corpus entry against the one rule it targets.
	PeepRules []string

	// OracleOnly leaves the program out of the heavy sample: properties
	// that run only on the heavy sample are skipped — the fast mode for
	// high-throughput campaigns, which set it on all but a sample of
	// programs.
	OracleOnly bool
}

func (c Config) withDefaults() Config {
	if len(c.Machines) == 0 {
		c.Machines = []ir.Machine{ir.IA64, ir.PPC64}
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 50_000_000
	}
	return c
}

// Fixed parameters of the heavy properties.
const (
	parallelism = 4 // worker count of the parallel, cache and profile legs
	fixpointK   = 4 // Eliminate iterations allowed to converge
)

// Failure is one property violation on one program.
type Failure struct {
	Prop    string // the property's table name, or "compile" for a failed guarded compile
	Machine ir.Machine
	Detail  string
}

func (f Failure) String() string {
	return fmt.Sprintf("[%s/%v] %s", f.Prop, f.Machine, f.Detail)
}

// gate says which programs a property checks; each gate covers every
// program the one before it does.
type gate uint8

const (
	never  gate = iota
	sample      // the heavy sample only (Config.OracleOnly unset)
	every       // every program
)

// property is one entry of the properties table.
type property struct {
	name    string // Failure.Prop and the reproducer "; prop:" header
	unnamed gate   // programs checked when the property is not named
	named   gate   // programs checked when named in Config.Props; never = not an opt-in
	// acrossMachines properties compare the machines' results: they run once
	// per program, after every machine's own checks.
	acrossMachines bool
	check          func(*subject)
}

func (p *property) runs(named, heavy bool) bool {
	g := p.unnamed
	if named && p.named > g {
		g = p.named
	}
	return g == every || g == sample && heavy
}

// properties is the one list of checked properties, in the order Check
// runs them. Adding a property means adding one entry here.
var properties = []property{
	// The guarded pipeline compiles every valid program without a fallback.
	{name: "fallback", unnamed: every, check: func(s *subject) {
		for _, fb := range s.res.Fallbacks {
			s.fail("pipeline fell back on valid input: %v", fb)
		}
	}},
	// The differential oracle: the fully eliminated build reproduces the
	// Convert64-only build bit-for-bit (output and trap) and never executes
	// more dynamic extensions.
	{name: "oracle", unnamed: every, check: func(s *subject) {
		if s.oracleErr != nil {
			s.fail("%v", s.oracleErr)
		}
	}},
	// Convert64's own contract: its 64-bit reference build reproduces the
	// frontend's 32-bit-form semantics exactly.
	{name: "mode32", unnamed: every, check: func(s *subject) {
		if (s.ref32Err != nil) != (s.rep.RefErr != nil) {
			s.fail("trap mismatch: 32-bit form %v, Convert64 reference %v", s.ref32Err, s.rep.RefErr)
		} else if s.ref32.Output != s.rep.RefOutput {
			s.fail("output mismatch:\n32-bit form %q\nConvert64 reference %q", s.ref32.Output, s.rep.RefOutput)
		}
	}},
	// Machine-level extension counts match the IR's (see loweringDetail).
	{name: "lowering", unnamed: every, check: reportDetail(loweringDetail)},
	// The threaded bytecode interpreter is bit-identical to the reference
	// tree walker (see dispatchDetail); cheap enough for the heavy set by
	// default and for every program when named.
	{name: "dispatch-identity", unnamed: sample, named: every, check: reportDetail(dispatchDetail)},
	// A rule-table peephole build behaves like the reference build (see
	// peepDetail); cheap enough for every program when named, so directed
	// corpus entries replay it in oracle-only campaigns.
	{name: "peep-identity", named: every, check: reportDetail(peepDetail)},
	// Parallelism=1 and Parallelism=N produce bit-identical results.
	{name: "parallel-identity", unnamed: sample, check: func(s *subject) {
		popts := s.opts
		popts.Parallelism = parallelism
		pres, err := jit.Compile(s.p.Prog, popts)
		if err != nil {
			s.fail("parallel compile failed: %v", err)
		} else if fingerprint(s.res) != fingerprint(pres) {
			s.fail("Parallelism=1 and Parallelism=%d results differ", parallelism)
		}
	}},
	{name: "cache-identity", named: sample, check: checkCache},
	{name: "serve-identity", named: sample, check: reportDetail(serveDetail)},
	{name: "profile-identity", named: sample, check: checkProfile},
	{name: "budget", unnamed: sample, check: checkBudget},
	{name: "fixpoint", unnamed: sample, check: checkFixpoint},
	// The IA64 and PPC64 reference builds print the same output.
	{name: "cross-machine", unnamed: every, acrossMachines: true, check: func(s *subject) {
		if a, aok := s.refOut[ir.IA64]; aok {
			if b, bok := s.refOut[ir.PPC64]; bok && a != b {
				s.fails = append(s.fails, Failure{Prop: s.prop, Machine: ir.IA64, Detail: fmt.Sprintf(
					"IA64 and PPC64 reference outputs differ:\nia64 %q\nppc64 %q", a, b)})
			}
		}
	}},
}

// OptIns lists the properties Config.Props can name, in table order.
func OptIns() []string {
	var names []string
	for _, p := range properties {
		if p.named != never {
			names = append(names, p.name)
		}
	}
	return names
}

// configFor returns base set up to check prop: an opt-in property is named,
// one that would skip an oracle-only program gets the heavy set, one that
// compares machines gets every machine, and a reproducer's "; rule:" focuses
// the peephole pass. It is the one route from a property name to a Config:
// shrink predicates, corpus replay and the reproducer tests all use it.
func configFor(base Config, prop, rule string) Config {
	c := base
	if rule != "" {
		c.PeepRules = []string{rule}
	}
	for _, p := range properties {
		if p.name != prop {
			continue
		}
		named := p.named != never
		if named {
			c.Props = append(c.Props[:len(c.Props):len(c.Props)], prop)
		}
		if !p.runs(named, false) {
			c.OracleOnly = false
		}
		if p.acrossMachines {
			c.Machines = nil
		}
	}
	return c
}

// subject is what the property checks read for one program on one machine:
// the 32-bit reference run, the guarded compile and its oracle report.
// Failures accumulate on it under the property being checked.
type subject struct {
	p        *Program
	cfg      Config
	ref32    *interp.Result
	ref32Err error
	refOut   map[ir.Machine]string // Convert64 reference output per machine so far

	mach      ir.Machine
	opts      jit.Options // options of the guarded compile res
	res       *jit.Result
	rep       *guard.Report
	oracleErr error

	prop  string
	fails []Failure
}

func (s *subject) fail(format string, args ...interface{}) {
	s.fails = append(s.fails, Failure{Prop: s.prop, Machine: s.mach, Detail: fmt.Sprintf(format, args...)})
}

// reportDetail adapts a check that returns one diagnostic ("" = holds).
func reportDetail(detail func(*subject) string) func(*subject) {
	return func(s *subject) {
		if d := detail(s); d != "" {
			s.fail("%s", d)
		}
	}
}

// Check runs every configured property on one program. skipped reports that
// the program proved nothing (its reference run hit the step limit) and
// should not count as covered. An empty failure list means every property
// held.
func Check(p *Program, cfg Config) (fails []Failure, skipped bool) {
	cfg = cfg.withDefaults()

	// The 32-bit-form reference semantics: ground truth for everything.
	ref32, ref32Err := interp.Run(p.Prog, "main", interp.Options{
		Mode: interp.Mode32, MaxSteps: cfg.MaxSteps,
	})
	if errors.Is(ref32Err, interp.ErrStepLimit) {
		return nil, true
	}
	s := &subject{p: p, cfg: cfg, ref32: ref32, ref32Err: ref32Err, refOut: map[ir.Machine]string{}}
	checkAll := func(acrossMachines bool) {
		for i := range properties {
			prop := &properties[i]
			named := slices.Contains(cfg.Props, prop.name)
			if prop.acrossMachines == acrossMachines && prop.runs(named, !cfg.OracleOnly) {
				s.prop = prop.name
				prop.check(s)
			}
		}
	}
	for _, mach := range cfg.Machines {
		s.mach = mach
		s.opts = jit.Options{
			Variant: jit.All, Machine: mach, GeneralOpts: true,
			Checked: true, Parallelism: 1,
		}
		res, err := jit.Compile(p.Prog, s.opts)
		if err != nil {
			s.fails = append(s.fails, Failure{Prop: "compile", Machine: mach,
				Detail: fmt.Sprintf("guarded compile failed: %v", err)})
			continue
		}
		// Differential oracle: Convert64-only reference vs fully eliminated.
		rep, oerr := guard.Oracle{Machine: mach, MaxSteps: cfg.MaxSteps}.Check(p.Prog, res.Prog)
		if errors.Is(rep.RefErr, interp.ErrStepLimit) && errors.Is(rep.OptErr, interp.ErrStepLimit) {
			return nil, true
		}
		if rep.RefErr == nil {
			s.refOut[mach] = rep.RefOutput
		}
		s.res, s.rep, s.oracleErr = res, rep, oerr
		checkAll(false)
	}
	checkAll(true)
	return s.fails, false
}

// checkCache is the cache-identity property: compiling through a freshly
// populated compile cache (a warm hit) is bit-identical to the cold compile
// that populated it, at every worker count, and the cold cached compile
// matches the uncached one.
func checkCache(s *subject) {
	cache := codecache.New(64 << 20)
	copts := s.opts
	copts.Cache = cache
	cold, err := jit.Compile(s.p.Prog, copts)
	if err != nil {
		s.fail("cold cached compile failed: %v", err)
		return
	}
	if fingerprint(cold) != fingerprint(s.res) {
		s.fail("cold compile through the cache differs from the uncached compile")
		return
	}
	for _, par := range []int{1, parallelism} {
		wopts := copts
		wopts.Parallelism = par
		warm, err := jit.Compile(s.p.Prog, wopts)
		if err != nil {
			s.fail("warm compile (par=%d) failed: %v", par, err)
			continue
		}
		if warm.CacheStats == nil || warm.CacheStats.Misses != 0 || warm.CacheStats.Hits == 0 {
			s.fail("warm compile (par=%d) was not fully warm: %+v", par, warm.CacheStats)
		}
		if fingerprint(warm) != fingerprint(cold) {
			s.fail("warm cache hit (par=%d) differs from the cold compile", par)
		}
	}
}

// checkProfile is the profile-identity property. The tiered runtime
// promotes every function after its first call (threshold 1), so later
// invocations run compiled bodies mid-profile. Every invocation must
// reproduce the 32-bit reference exactly, and by the frozen-profile
// invariant the steady-state Finalize artifact must equal a one-shot compile
// fed the gathered profile, at every worker count.
func checkProfile(s *subject) {
	for _, par := range []int{1, parallelism} {
		topts := s.opts
		topts.Parallelism = par
		mgr, err := tiered.New(s.p.Prog, tiered.Config{
			Options: topts, HotThreshold: 1, MaxSteps: s.cfg.MaxSteps,
		})
		if err != nil {
			s.fail("tiered manager (par=%d): %v", par, err)
			continue
		}
		proved := true
		for i := 1; i <= 3; i++ {
			tres, ierr := mgr.Invoke()
			if errors.Is(ierr, interp.ErrStepLimit) {
				proved = false // step-limited invocation proves nothing
				break
			}
			if (ierr != nil) != (s.ref32Err != nil) {
				s.fail("invocation %d (par=%d) trap mismatch: tiered %v, 32-bit reference %v",
					i, par, ierr, s.ref32Err)
				proved = false
				break
			}
			if tres.Output != s.ref32.Output {
				s.fail("invocation %d (par=%d) output mismatch:\ntiered %q\n32-bit reference %q",
					i, par, tres.Output, s.ref32.Output)
				proved = false
				break
			}
		}
		if !proved {
			continue
		}
		final, err := mgr.Finalize()
		if err != nil {
			s.fail("finalize (par=%d): %v", par, err)
			continue
		}
		sopts := topts
		sopts.Profile = mgr.Profile()
		oneshot, err := jit.Compile(s.p.Prog, sopts)
		if err != nil {
			s.fail("one-shot profile compile (par=%d): %v", par, err)
			continue
		}
		if fingerprint(final) != fingerprint(oneshot) {
			s.fail("steady-state artifact (par=%d) differs from the one-shot compile with the gathered profile", par)
		}
	}
}

// checkBudget is the budget property: along the ElimBudget ladder, then
// unlimited, Stats.Eliminated never decreases (exhaustion falls a function
// back to Convert64-only).
func checkBudget(s *subject) {
	prev, prevBudget := -1, 0
	for _, budget := range []int{300, 3000, 0} { // 0 = unlimited
		bopts := s.opts
		bopts.ElimBudget = budget
		bres, err := jit.Compile(s.p.Prog, bopts)
		if err != nil {
			s.fail("compile with budget %d failed: %v", budget, err)
			return
		}
		if prev >= 0 && bres.Stats.Eliminated < prev {
			s.fail("eliminated count not monotone: budget %d eliminated %d, budget %d eliminated %d",
				prevBudget, prev, budget, bres.Stats.Eliminated)
		}
		prev, prevBudget = bres.Stats.Eliminated, budget
	}
}

// checkFixpoint re-runs the elimination phase on its own output: the static
// extension count must never grow, the IR must reach a textual fixpoint
// within fixpointK iterations, and the converged program must still satisfy
// the oracle. (Strict single-pass idempotence is empirically false — a
// second pass occasionally finds one more eliminable extension — so the
// property checked is convergence, not no-op; see DESIGN.md §8.)
func checkFixpoint(s *subject) {
	clone := s.res.Prog.Clone()
	ecfg := extelim.Config{Machine: s.mach, Insert: true, Order: true, Array: true}
	count := func() int {
		n := 0
		for _, fn := range clone.Funcs {
			n += fn.CountOp(ir.OpExt)
		}
		return n
	}
	prevExts, prevText := count(), formatProgram(clone)
	converged := false
	for it := 1; it <= fixpointK; it++ {
		for _, fn := range clone.Funcs {
			extelim.Eliminate(fn, ecfg)
		}
		exts, text := count(), formatProgram(clone)
		if exts > prevExts {
			s.fail("iteration %d grew the static extension count %d -> %d", it, prevExts, exts)
			return
		}
		if text == prevText {
			converged = true
			break
		}
		prevExts, prevText = exts, text
	}
	if !converged {
		s.fail("Eliminate did not reach an IR fixpoint within %d iterations", fixpointK)
		return
	}
	oracle := guard.Oracle{Machine: s.mach, MaxSteps: s.cfg.MaxSteps}
	if _, err := oracle.Check(s.p.Prog, clone); err != nil {
		s.fail("converged program violates the oracle: %v", err)
	}
}

// dispatchDetail runs a program under both interpreter dispatchers and
// demands bit-identical results: output, trap string, step count, cycles,
// dynamic extension count, and profile (entry and branch counts).
// It checks the two configurations the system actually runs: the profiling
// tier (Mode32 with a profile, on the source program) and the optimized tier
// (Mode64, dummy checking, on the compiled program).
func dispatchDetail(s *subject) string {
	src, opt, mach, maxSteps := s.p.Prog, s.res.Prog, s.mach, s.cfg.MaxSteps
	legs := []struct {
		name string
		prog *ir.Program
		opts interp.Options
	}{
		{"profiling-32", src, interp.Options{
			Mode: interp.Mode32, Machine: mach, MaxSteps: maxSteps,
			Profile: true, Cost: target.CostModel(mach),
		}},
		{"optimized-64", opt, interp.Options{
			Mode: interp.Mode64, Machine: mach, MaxSteps: maxSteps,
			CheckDummies: true, Cost: target.CostModel(mach),
		}},
	}
	for _, leg := range legs {
		so := leg.opts
		so.Dispatch = interp.DispatchSwitch
		sw, swErr := interp.Run(leg.prog, "main", so)
		th, thErr := interp.Run(leg.prog, "main", leg.opts)
		if d := dispatchCompare(sw, swErr, th, thErr); d != "" {
			return fmt.Sprintf("%s leg: %s", leg.name, d)
		}
	}
	return ""
}

// dispatchCompare reports the first divergence between a switch-dispatch run
// and a threaded-dispatch run, or "" if they are bit-identical.
func dispatchCompare(sw *interp.Result, swErr error, th *interp.Result, thErr error) string {
	errStr := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	if errStr(swErr) != errStr(thErr) {
		return fmt.Sprintf("trap mismatch: switch %v, threaded %v", swErr, thErr)
	}
	if sw.Output != th.Output {
		return fmt.Sprintf("output mismatch:\nswitch %q\nthreaded %q", sw.Output, th.Output)
	}
	if sw.Steps != th.Steps {
		return fmt.Sprintf("step count mismatch: switch %d, threaded %d", sw.Steps, th.Steps)
	}
	if sw.Cycles != th.Cycles {
		return fmt.Sprintf("cycle count mismatch: switch %d, threaded %d", sw.Cycles, th.Cycles)
	}
	if sw.Ext != th.Ext {
		return fmt.Sprintf("dynamic extension count mismatch: switch %d, threaded %d", sw.Ext, th.Ext)
	}
	if !reflect.DeepEqual(sw.Profile, th.Profile) {
		return fmt.Sprintf("profile mismatch:\nswitch %s\nthreaded %s", sw.Profile.Marshal(), th.Profile.Marshal())
	}
	return ""
}

// peepDetail compiles the program with the rule-table peephole pass enabled
// and demands the reference build's observable behaviour: same trap, same
// output, under both interpreter dispatchers. The pass must also never fall
// back on valid input, and since no rule materializes an extension, the
// peeped build must execute no more dynamic 32-bit extensions than the
// un-peeped build.
func peepDetail(s *subject) string {
	opts := s.opts
	opts.Peep, opts.PeepRules = true, s.cfg.PeepRules
	res, err := jit.Compile(s.p.Prog, opts)
	if err != nil {
		return fmt.Sprintf("peep compile failed: %v", err)
	}
	for _, fb := range res.Fallbacks {
		return fmt.Sprintf("peep pipeline fell back on valid input: %v", fb)
	}
	for _, d := range []interp.Dispatch{interp.DispatchSwitch, interp.DispatchAuto} {
		out, rerr := interp.Run(res.Prog, "main", interp.Options{
			Mode: interp.Mode64, Machine: s.mach, MaxSteps: s.cfg.MaxSteps, Dispatch: d,
		})
		if (rerr != nil) != (s.rep.RefErr != nil) {
			return fmt.Sprintf("dispatch %d trap mismatch: peeped %v, reference %v", d, rerr, s.rep.RefErr)
		}
		if rerr == nil && out.Output != s.rep.RefOutput {
			return fmt.Sprintf("dispatch %d output mismatch:\npeeped    %q\nreference %q", d, out.Output, s.rep.RefOutput)
		}
		if rerr == nil && s.rep.OptErr == nil && out.Ext32() > s.rep.OptExts {
			return fmt.Sprintf("dispatch %d: peeped build executes %d dynamic 32-bit extensions, un-peeped build %d",
				d, out.Ext32(), s.rep.OptExts)
		}
	}
	return ""
}

// loweringDetail cross-checks the machine-level extension cost against the
// IR-level count. IA64 materializes exactly one sxt1/sxt2/sxt4 per OpExt;
// PPC64 one extsb/extsh/extsw per OpExt plus one extsb per byte load (no
// sign-extending lba exists, so lbz pairs with extsb).
func loweringDetail(s *subject) string {
	prog, mach := s.res.Prog, s.mach
	for _, fn := range prog.Funcs {
		asm := target.Lower(fn, mach)
		exts := fn.CountOp(ir.OpExt)
		var got, want int
		switch mach {
		case ir.IA64:
			got = asm.Count("sxt1") + asm.Count("sxt2") + asm.Count("sxt4")
			want = exts
		case ir.PPC64:
			byteLoads := 0
			fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
				if (ins.Op == ir.OpArrLoad || ins.Op == ir.OpLoadG) && ins.W == ir.W8 && !ins.Float {
					byteLoads++
				}
			})
			got = asm.Count("extsb") + asm.Count("extsh") + asm.Count("extsw")
			want = exts + byteLoads
		}
		if got != want {
			return fmt.Sprintf("%s: machine ext count %d, IR predicts %d", fn.Name, got, want)
		}
	}
	return ""
}

// fingerprint captures everything about a compile result that must not
// depend on worker scheduling: the IR, statistics, telemetry shape (minus
// wall times) and fallback records.
func fingerprint(res *jit.Result) string {
	var b strings.Builder
	for _, fn := range res.Prog.Funcs {
		b.WriteString(fn.Format())
	}
	fmt.Fprintf(&b, "stats=%+v static=%d rewrites=%d\n", res.Stats, res.StaticExts, res.PeepRewrites)
	for _, r := range res.Telemetry {
		if r.Phase == jit.PhaseCache {
			// Warm compiles record a per-function lookup-cost entry; it is
			// bookkeeping, not output, and must not break cache identity.
			continue
		}
		fmt.Fprintf(&b, "tel %s %s %d %d %d %d %v\n", r.Func, r.Phase, r.Eliminated, r.Inserted, r.Dummies, r.Rewrites, r.Fallback)
	}
	for _, fb := range res.Fallbacks {
		fmt.Fprintf(&b, "fb %s %s\n", fb.Phase, fb.Func)
	}
	return b.String()
}

// formatProgram renders a program in its canonical textual form.
func formatProgram(p *ir.Program) string {
	var b strings.Builder
	if p.NGlobals > 0 {
		fmt.Fprintf(&b, "globals %d\n", p.NGlobals)
	}
	for _, fn := range p.Funcs {
		b.WriteString(fn.Format())
		b.WriteByte('\n')
	}
	return b.String()
}
