// Package jit drives the compiler pipeline of the paper's Figure 5 — 64-bit
// conversion, general optimizations, and the sign extension phase — for each
// measured algorithm variant, with per-phase timing (the paper's Table 3) and
// the tiered profile collection of its combined interpreter and dynamic
// compiler: a profiling run in the interpreter supplies branch statistics to
// order determination.
//
// The pipeline is guarded the way a production JIT tier is: every optimizer
// phase runs under recover with a pre-phase snapshot of the function, so a
// panicking or (under Options.Checked) verifier-rejected phase disables
// itself for that function only and compilation still succeeds with the
// correct Convert64-only code. See internal/guard.
//
// Per-function pipelines are independent, so Compile fans them out over a
// worker pool (Options.Parallelism). The result is bit-identical to a
// sequential compile: workers only touch their own function, and the driver
// merges statistics, telemetry and fallbacks in a deterministic order.
package jit

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"signext/internal/codecache"
	"signext/internal/extelim"
	"signext/internal/guard"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/opt"
	"signext/internal/peep"
	"signext/internal/profile"
	"signext/internal/target"
)

// Variant enumerates the measured algorithm configurations, matching the rows
// of the paper's Tables 1 and 2.
type Variant int

// The twelve variants of Tables 1 and 2.
const (
	Baseline       Variant = iota // disable the sign extension phase entirely
	GenUse                        // generate before use points; no elimination
	FirstAlgorithm                // generation after defs + backward dataflow
	BasicUDDU                     // UD/DU elimination; no insert/order/array
	Insert                        // + insertion only
	Order                         // + order determination only
	InsertOrder                   // insertion and order determination
	Array                         // array-subscript elimination only
	ArrayInsert                   // array + insertion
	ArrayOrder                    // array + order determination
	AllPDE                        // everything, PDE-style insertion
	All                           // the new algorithm, everything enabled
	numVariants
)

// Variants lists every variant in table order.
var Variants = []Variant{
	Baseline, GenUse, FirstAlgorithm, BasicUDDU, Insert, Order, InsertOrder,
	Array, ArrayInsert, ArrayOrder, AllPDE, All,
}

var variantNames = [numVariants]string{
	"baseline", "gen use (reference)", "first algorithm (bwd flow)",
	"basic ud/du", "insert", "order", "insert, order", "array",
	"array, insert", "array, order", "all, using PDE (reference)",
	"new algorithm (all)",
}

func (v Variant) String() string { return variantNames[v] }

// variantFlags are the short spellings of the variants on command lines and
// in daemon requests, in table order.
var variantFlags = [numVariants]string{
	"baseline", "genuse", "first", "basic", "insert", "order", "insert-order",
	"array", "array-insert", "array-order", "all-pde", "all",
}

// ParseVariant resolves a short variant name ("all", "baseline", …).
func ParseVariant(name string) (Variant, error) {
	for v, flag := range variantFlags {
		if flag == name {
			return Variant(v), nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q", name)
}

// config maps a variant onto the elimination phase switches.
func (v Variant) config() (useElim bool, c extelim.Config) {
	switch v {
	case Baseline, GenUse, FirstAlgorithm:
		return false, c
	case BasicUDDU:
	case Insert:
		c.Insert = true
	case Order:
		c.Order = true
	case InsertOrder:
		c.Insert, c.Order = true, true
	case Array:
		c.Array = true
	case ArrayInsert:
		c.Array, c.Insert = true, true
	case ArrayOrder:
		c.Array, c.Order = true, true
	case AllPDE:
		c.Array, c.Insert, c.Order, c.UsePDE = true, true, true, true
	case All:
		c.Array, c.Insert, c.Order = true, true, true
	}
	return true, c
}

// Options configures a compilation.
type Options struct {
	Variant     Variant
	Machine     ir.Machine
	MaxArrayLen int64
	GeneralOpts bool            // Figure 5 step (2); on for all paper rows
	Profile     profile.Profile // branch profile for order determination

	// Parallelism is the number of worker goroutines the per-function phase
	// pipelines fan out over. 0 selects runtime.GOMAXPROCS(0); 1 compiles
	// strictly sequentially on the calling goroutine. Whole-program inlining
	// always runs sequentially first. The compiled program, statistics,
	// telemetry and fallback records are identical for every setting — only
	// wall-clock time changes.
	Parallelism int

	// Checked runs the deep guard verifier (CFG consistency, def-before-use,
	// extension widths, chain cross-consistency) at every phase boundary. A
	// function failing verification is restored to its pre-phase snapshot —
	// the phase is disabled for that function only — and the failure is
	// recorded in Result.Fallbacks.
	Checked bool

	// ElimBudget caps the per-function analysis work of the elimination
	// phase (extelim.Config.MaxWork). Exhaustion triggers the same graceful
	// fallback as a phase panic. 0 means unlimited.
	ElimBudget int

	// Peep enables the declarative rule-table peephole pass (internal/peep)
	// after the sign extension phase. It consumes the same value-range facts
	// the elimination phase proves — the upper-32-bits-zero facts in
	// particular feed the magic-number division rules — and runs under the
	// same guard: a panicking or verifier-rejected pass restores the
	// pre-phase snapshot for that function only.
	Peep bool

	// PeepRules, when non-empty, restricts the peephole pass to the named
	// table rules. Names must come from peep.RuleNames; validate user input
	// with peep.ValidateRules before compiling. Nil means every rule.
	PeepRules []string

	// PhaseHook, if set, is called inside every guarded phase before its
	// body runs, with the function about to be transformed (nil for the
	// whole-program inlining phase). Tests use it to force deterministic
	// phase failures; a panicking hook behaves exactly like a panicking
	// phase. With Parallelism above 1 the hook is called concurrently from
	// worker goroutines and must be safe for that.
	PhaseHook func(phase string, fn *ir.Func)

	// Cache, when non-nil, memoizes per-function compilation results in a
	// shared, concurrency-safe LRU. Entries are content-addressed on the
	// function's structural fingerprint plus its name and every option that
	// influences compilation (variant, machine, array bound, general-opts and
	// checked switches, elimination budget, peephole switches and the
	// function's branch-profile signature). A hit installs a clone of the
	// cached optimized function and replays its statistics, counter telemetry
	// (walls zeroed; one "cache" record carries the true lookup cost) and
	// fallback records, so warm results are bit-identical to cold ones. A
	// non-nil PhaseHook bypasses the cache entirely. With
	// Cache.SetParanoid(true) every hit is re-verified by the deep guard
	// verifier; a failing entry is evicted and silently recompiled. Any
	// codecache.Interface works: a flat Cache, a Sharded cache, or a
	// disk-backed Spill whose warm entries survive process restarts.
	Cache codecache.Interface

	// Ctx, when non-nil, carries the compile's deadline and cancellation.
	// The pipeline checks it at per-function boundaries: once the context
	// is done, every not-yet-compiled function is compiled at the floor —
	// guarded Convert64-only, the same correct code a phase fallback
	// produces — and recorded in Result.Degraded. Compile still returns a
	// complete, correct program; it is degraded, never wrong, and never
	// aborted. Floor compiles bypass the cache (their outcome depends on
	// when the deadline fired, not only on content).
	Ctx context.Context
}

// ctxDone reports whether the compile's context (if any) has expired.
func (o Options) ctxDone() bool { return o.Ctx != nil && Expired(o.Ctx) }

// Expired reports whether ctx is done or its deadline has passed. A deadline
// that has passed counts even before Err reports it: a timer-backed context
// sets Err only once its timer goroutine runs, which on a loaded machine can
// lag the deadline by milliseconds.
func Expired(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	d, ok := ctx.Deadline()
	return ok && !time.Now().Before(d)
}

// parallelism resolves the worker count for a program with n functions.
func (o Options) parallelism(n int) int {
	p := o.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Timing is the compilation-time breakdown of the paper's Table 3. The three
// buckets are a disjoint partition of the compile work: every telemetry
// record lands in exactly one bucket, so SignExt + Chains + Others == the sum
// over Result.Telemetry — regression-tested, not merely intended.
type Timing struct {
	SignExt time.Duration // sign extension optimizations proper (chain building excluded)
	Chains  time.Duration // shared analyses: UD/DU chains + value ranges
	Others  time.Duration // everything else (inlining, conversion, general opts, verification)

	// Wall is the end-to-end wall-clock time of Compile. With one worker it
	// tracks Total(); with several it is smaller — Total() sums the per-phase
	// work across all workers, which is what Table 3 reports.
	Wall time.Duration
}

// Total returns the full compilation work time (summed across workers).
func (t Timing) Total() time.Duration { return t.SignExt + t.Chains + t.Others }

// Telemetry phase names, in pipeline order.
const (
	PhaseInlining = "inlining"
	PhaseConvert  = "convert64"
	PhaseOpts     = "general opts"
	PhaseGenUse   = "gen-use conversion"
	PhaseSignExt  = "signext"
	PhasePeep     = "peep"
	PhaseChains   = "chains"
	PhaseVerify   = "verify"
	ProgramScope  = "<program>" // Func value for whole-program records
)

// PhaseRecord is one compile-telemetry sample: the wall time one phase spent
// on one function, plus that phase's counters. Records for the whole-program
// inlining phase carry Func == ProgramScope. The "chains" record splits the
// UD/DU chain + value range construction out of the enclosing "signext"
// phase, so summing all records of a function gives its total compile time
// with no double counting.
type PhaseRecord struct {
	Func       string        `json:"func"`
	Phase      string        `json:"phase"`
	Wall       time.Duration `json:"wall_ns"`
	Eliminated int           `json:"eliminated,omitempty"`
	Inserted   int           `json:"inserted,omitempty"`
	Dummies    int           `json:"dummies,omitempty"`
	Rewrites   int           `json:"rewrites,omitempty"`
	Fallback   bool          `json:"fallback,omitempty"` // phase failed; snapshot restored
}

// Result is a compiled program plus its statistics.
type Result struct {
	Prog       *ir.Program
	Options    Options
	Stats      extelim.Stats // summed over functions
	Timing     Timing
	StaticExts int // extension instructions surviving in the code

	// PeepRewrites counts rule-table rewrites applied by the peephole pass,
	// summed over functions. Zero unless Options.Peep is set.
	PeepRewrites int

	// Telemetry holds one record per (function, phase) the pipeline ran,
	// sorted by function name (ProgramScope first), then pipeline order.
	// Timing is derived from it: each record belongs to exactly one
	// SignExt/Chains/Others bucket.
	Telemetry []PhaseRecord

	// Fallbacks records every phase that panicked, failed verification, or
	// exhausted its work budget and was therefore disabled for one function,
	// sorted like Telemetry. The compiled code is still correct: the affected
	// function runs its pre-phase (at worst Convert64-only) code.
	Fallbacks []*guard.PhaseError

	// Degraded lists the functions (sorted by name) compiled at the
	// Convert64-only floor because Options.Ctx expired before their
	// pipeline ran. Degraded code is correct — it is the same code the
	// Baseline variant produces — just unoptimized.
	Degraded []string

	// CacheStats reports this compile's cache traffic plus a snapshot of the
	// shared cache's cumulative counters. Nil when Options.Cache is nil.
	CacheStats *CacheStats
}

// funcOutcome is everything one per-function pipeline produces. Workers fill
// these in independently; the driver merges them in function order so the
// result is identical regardless of scheduling.
type funcOutcome struct {
	stats      extelim.Stats
	records    []PhaseRecord
	fallbacks  []*guard.PhaseError
	replace    *ir.Func // restored snapshot or cached clone to install into Prog, nil if untouched
	fatal      error    // conversion failure: abort compile
	staticExts int
	rewrites   int // peephole rule-table rewrites applied

	cacheHit      bool // served from Options.Cache
	cacheRejected bool // cached entry failed paranoid verification; recompiled
	degraded      bool // deadline expired; compiled at the Convert64-only floor
}

// compileFuncFloor compiles fn at the graceful-degradation floor: guarded
// Convert64-only, exactly the code a sign-extension-phase fallback (or the
// Baseline variant) produces. It is the deadline path, so it must be cheap
// and must not consult the cache — its outcome depends on when the deadline
// fired, not only on the function's content.
func compileFuncFloor(fn *ir.Func, o Options) funcOutcome {
	o.Variant = Baseline
	o.GeneralOpts = false
	o.Cache = nil
	out := compileFunc(fn, o)
	out.degraded = true
	return out
}

// compileFunc runs the per-function pipeline — conversion, general
// optimizations, and the sign extension phase — on fn. It mutates fn (or,
// after a fallback, a restored clone) and never touches any other function
// or the enclosing program, so it is safe to run one compileFunc per
// function concurrently.
func compileFunc(fn *ir.Func, o Options) funcOutcome {
	p := &pipeline{o: o, cur: fn}

	// Step (1): conversion for a 64-bit architecture. The "gen use"
	// reference generates at the code generation phase instead, i.e. after
	// the general optimizations.
	if o.Variant != GenUse {
		if _, ok := p.run(PhaseConvert, true, func(f *ir.Func) error {
			extelim.Convert64(f, o.Machine)
			return nil
		}); !ok {
			return p.out
		}
	}

	// Step (2): general optimizations.
	if o.GeneralOpts {
		p.run(PhaseOpts, false, func(f *ir.Func) error {
			opt.Run(f)
			return nil
		})
	}
	if o.Variant == GenUse {
		if _, ok := p.run(PhaseGenUse, true, func(f *ir.Func) error {
			extelim.ConvertGenUse(f, o.Machine)
			return nil
		}); !ok {
			return p.out
		}
	}

	// Step (3): the sign extension phase. This is the phase the guardrails
	// exist for: any failure falls back to the Convert64-only code above.
	if o.Variant != Baseline && o.Variant != GenUse {
		_, c := o.Variant.config()
		c.Machine = o.Machine
		c.MaxArrayLen = o.MaxArrayLen
		c.Profile = o.Profile
		c.MaxWork = o.ElimBudget
		var st extelim.Stats
		rec, kept := p.run(PhaseSignExt, false, func(f *ir.Func) error {
			if o.Variant == FirstAlgorithm {
				st.Eliminated = extelim.FirstAlgorithm(f)
				return nil
			}
			st = extelim.Eliminate(f, c)
			if st.BudgetExhausted {
				return fmt.Errorf("guard: elimination work budget of %d exhausted", o.ElimBudget)
			}
			return nil
		})
		if kept {
			rec.Eliminated, rec.Inserted, rec.Dummies = st.Eliminated, st.Inserted, st.Dummies
			p.out.stats.Inserted += st.Inserted
			p.out.stats.Dummies += st.Dummies
			p.out.stats.Eliminated += st.Eliminated
		}
		// The eliminator times its chain + value-range construction
		// (extelim.Stats.ChainTime); split that out as its own record so the
		// "signext" record holds only the elimination work proper and the
		// partition stays disjoint. A panicking phase loses its measurement
		// (st is zero) — its whole wall lands in "signext", still counted
		// exactly once.
		if chain := min(st.ChainTime, rec.Wall); chain > 0 {
			rec.Wall -= chain
			p.out.records = append(p.out.records, PhaseRecord{Func: fn.Name, Phase: PhaseChains, Wall: chain})
		}
	}

	// The rule-table peephole pass runs last, on the extension-minimal code:
	// it consumes the value-range facts the elimination phase worked to make
	// provable (a dividend's upper 32 bits known zero is what licenses the
	// magic-number division rules).
	if o.Peep {
		var st peep.Stats
		rec, kept := p.run(PhasePeep, false, func(f *ir.Func) error {
			st = peep.Run(f, peep.Config{Machine: o.Machine, MaxArrayLen: o.MaxArrayLen, Rules: o.PeepRules})
			return nil
		})
		if kept {
			rec.Rewrites = st.Rewrites
			p.out.rewrites += st.Rewrites
		}
	}

	p.out.staticExts = p.cur.CountOp(ir.OpExt)
	return p.out
}

// pipeline is one function's trip through the phases of compileFunc.
type pipeline struct {
	o   Options
	cur *ir.Func // current version of the function; a fallback swaps in the snapshot
	out funcOutcome
}

// run is the one place a phase is run. It times the phase, calls PhaseHook,
// runs body under guard.RunPhase and, under Checked, verifies the result with
// guard.VerifyFunc. An optimizer phase first takes a snapshot of the
// function: if the hook or body panics, the body returns an error (budget
// exhaustion) or the verifier rejects its result, the snapshot becomes the
// current function — the phase is disabled for this function only — and the
// failure is recorded as a fallback. A conversion phase takes no snapshot:
// conversion is the correctness floor, so there is nothing to fall back to
// and its failure is fatal. run appends the phase's record and returns it
// (valid until the next append) with whether the phase's effects were kept.
func (p *pipeline) run(phase string, convert bool, body func(f *ir.Func) error) (*PhaseRecord, bool) {
	t0 := time.Now()
	f := p.cur
	var snap *ir.Func
	if !convert {
		snap = f.Clone()
	}
	perr := guard.RunPhase(phase, f.Name, p.o.Variant.String(), "", func() error {
		if p.o.PhaseHook != nil {
			p.o.PhaseHook(phase, f)
		}
		if err := body(f); err != nil {
			return err
		}
		if p.o.Checked {
			return guard.VerifyFunc(f, p.o.Machine)
		}
		return nil
	})
	if perr != nil {
		perr.Snapshot = guard.Snapshot(f)
		if convert {
			p.out.fatal = perr
		} else {
			p.cur, p.out.replace = snap, snap
			p.out.fallbacks = append(p.out.fallbacks, perr)
		}
	}
	p.out.records = append(p.out.records, PhaseRecord{
		Func: f.Name, Phase: phase, Wall: time.Since(t0), Fallback: perr != nil && !convert,
	})
	return &p.out.records[len(p.out.records)-1], perr == nil
}

// Compile clones src and compiles it under the given options. src itself is
// never modified, so one frontend result can be compiled under all variants.
//
// Optimizer phases (general optimizations and the sign extension phase) are
// panic-safe: a panic never escapes Compile; the offending function is
// restored from its pre-phase snapshot and the failure recorded in
// Result.Fallbacks. Conversion failures have no correct fallback — without
// the generated extensions the 64-bit machine would read dirty upper bits —
// so they abort compilation with a structured *guard.PhaseError.
//
// Per-function pipelines run on Options.Parallelism workers; the merged
// result is identical for every worker count.
func Compile(src *ir.Program, o Options) (*Result, error) {
	start := time.Now()
	prog := src.Clone()
	res := &Result{Prog: prog, Options: o}

	// Method inlining runs first, on the 32-bit form, like the paper's
	// intermediate-language inliner [10, 19]: it removes call boundaries so
	// argument/result extensions become visible to the later phases. It is
	// all-or-nothing: a failure restarts from a fresh clone without it. It
	// is also the one whole-program phase, so it stays sequential. A compile
	// whose deadline already expired skips it: every function is about to be
	// floored to Convert64-only anyway, and inlining is the most expensive
	// phase to spend a blown budget on.
	if o.GeneralOpts && !o.ctxDone() {
		// Under Checked the inlined program is verified inside the phase, so
		// a verify failure restores the un-inlined clone; its time is
		// recorded as a separate verify record, not as inlining.
		t0 := time.Now()
		var verifyWall time.Duration
		verified := false
		perr := guard.RunPhase(PhaseInlining, ProgramScope, o.Variant.String(), "", func() error {
			if o.PhaseHook != nil {
				o.PhaseHook(PhaseInlining, nil)
			}
			opt.InlineProgram(prog)
			if !o.Checked {
				return nil
			}
			tv := time.Now()
			err := guard.VerifyProgram(prog, o.Machine)
			verifyWall, verified = time.Since(tv), true
			return err
		})
		if perr != nil {
			prog = src.Clone()
			res.Prog = prog
			res.Fallbacks = append(res.Fallbacks, perr)
		}
		res.Telemetry = append(res.Telemetry, PhaseRecord{
			Func: ProgramScope, Phase: PhaseInlining, Wall: time.Since(t0) - verifyWall, Fallback: perr != nil,
		})
		if verified {
			res.Telemetry = append(res.Telemetry, PhaseRecord{
				Func: ProgramScope, Phase: PhaseVerify, Wall: verifyWall,
			})
		}
	}

	// Fan the per-function pipelines out. Workers write only their own slot
	// and their own function; the program (shared Funcs slice + name index)
	// is mutated exclusively by the merge loop below, after the join.
	outs := make([]funcOutcome, len(prog.Funcs))
	if par := o.parallelism(len(prog.Funcs)); par <= 1 {
		for i, fn := range prog.Funcs {
			outs[i] = compileFuncCached(fn, o)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					outs[i] = compileFuncCached(prog.Funcs[i], o)
				}
			}()
		}
		for i := range outs {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}

	// Deterministic merge, in function order. A fatal outcome (conversion
	// failure) aborts with the lowest-index function's error — the same one
	// a sequential compile hits first.
	for i := range outs {
		if err := outs[i].fatal; err != nil {
			return nil, err
		}
	}
	for i := range outs {
		out := &outs[i]
		if out.replace != nil {
			prog.ReplaceFunc(out.replace)
		}
		res.Stats.Inserted += out.stats.Inserted
		res.Stats.Dummies += out.stats.Dummies
		res.Stats.Eliminated += out.stats.Eliminated
		res.Telemetry = append(res.Telemetry, out.records...)
		res.Fallbacks = append(res.Fallbacks, out.fallbacks...)
		res.StaticExts += out.staticExts
		res.PeepRewrites += out.rewrites
		if out.degraded {
			res.Degraded = append(res.Degraded, prog.Funcs[i].Name)
		}
	}
	sort.Strings(res.Degraded)
	res.Stats.Remaining = res.StaticExts
	if o.Cache != nil && o.PhaseHook == nil {
		cs := &CacheStats{}
		for i := range outs {
			switch {
			case outs[i].cacheHit:
				cs.Hits++
			case outs[i].degraded:
				// Floored functions never consulted the cache.
			default:
				cs.Misses++
			}
			if outs[i].cacheRejected {
				cs.ParanoidRejects++
			}
		}
		cs.Shared = o.Cache.Stats()
		res.CacheStats = cs
	}

	// Sort by function name (ProgramScope sorts first; per-function phase
	// order is preserved by stability), derive the Timing partition from the
	// records, and stamp the end-to-end wall clock.
	sort.SliceStable(res.Telemetry, func(i, j int) bool {
		return res.Telemetry[i].Func < res.Telemetry[j].Func
	})
	sort.SliceStable(res.Fallbacks, func(i, j int) bool {
		return res.Fallbacks[i].Func < res.Fallbacks[j].Func
	})
	for _, r := range res.Telemetry {
		switch r.Phase {
		case PhaseSignExt:
			res.Timing.SignExt += r.Wall
		case PhaseChains:
			res.Timing.Chains += r.Wall
		default:
			res.Timing.Others += r.Wall
		}
	}
	res.Timing.Wall = time.Since(start)
	return res, nil
}

// OracleCheck runs the differential oracle on a compiled result: src (the
// 32-bit-form frontend output the result was compiled from) is recompiled
// under the Baseline variant — the same pipeline with the sign extension
// phase disabled, i.e. exactly the Convert64-only code a fallback produces —
// and both programs execute in the interpreter. Any output divergence, trap
// divergence, or dynamic extension-count regression is returned as an error.
// The report carries both runs' observations either way.
func OracleCheck(src *ir.Program, res *Result, entry string) (*guard.Report, error) {
	refOpts := res.Options
	refOpts.Variant = Baseline
	refOpts.Checked = false
	refOpts.ElimBudget = 0
	refOpts.PhaseHook = nil
	ref, err := Compile(src, refOpts)
	if err != nil {
		return nil, fmt.Errorf("guard: oracle reference compile failed: %w", err)
	}
	o := guard.Oracle{
		Machine:     res.Options.Machine,
		MaxArrayLen: res.Options.MaxArrayLen,
		Entry:       entry,
	}
	return o.CheckAgainst(ref.Prog, res.Prog)
}

// ProfileRun executes the source (32-bit form) program in the interpreter
// tier, collecting the entry and branch counts the dynamic compiler receives
// (maxSteps 0 = the interpreter's default budget).
func ProfileRun(src *ir.Program, entry string, maxSteps int64) (profile.Profile, error) {
	res, err := interp.Run(src, entry, interp.Options{
		Mode:     interp.Mode32,
		Profile:  true,
		MaxSteps: maxSteps,
	})
	if err != nil {
		return nil, err
	}
	return res.Profile, nil
}

// Execute runs a compiled program on the 64-bit machine model with the
// target cost model attached, returning output, dynamic extension counts and
// cycles.
func Execute(res *Result, entry string) (*interp.Result, error) {
	return interp.Run(res.Prog, entry, interp.Options{
		Mode:        interp.Mode64,
		Machine:     res.Options.Machine,
		Cost:        target.CostModel(res.Options.Machine),
		MaxArrayLen: res.Options.MaxArrayLen,
	})
}
