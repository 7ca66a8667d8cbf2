// Package signext is a from-scratch reproduction of "Effective Sign
// Extension Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002): a
// JIT-style compiler pipeline for 64-bit targets that generates sign
// extensions after every narrow definition, then removes almost all of them
// using UD/DU chains, frequency-ordered elimination, extension insertion,
// and the array-subscript theorems enabled by Java-like language rules.
//
// The package is a facade over the internal compiler:
//
//	res, err := signext.CompileSource(src, signext.Options{Variant: signext.VariantAll})
//	run, err := res.Run()
//	fmt.Println(run.Output, run.DynamicExts)
//
// Programs are written in MiniJava (see internal/minijava) or built directly
// with the IR builder (internal/ir) and compiled with CompileProgram.
package signext

import (
	"signext/internal/codecache"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/peep"
	"signext/internal/profile"
	"signext/internal/target"
	"signext/internal/tiered"
)

// Variant selects the algorithm configuration, matching the paper's Tables 1
// and 2 rows.
type Variant = jit.Variant

// The measured variants.
const (
	VariantBaseline    = jit.Baseline
	VariantGenUse      = jit.GenUse
	VariantFirst       = jit.FirstAlgorithm
	VariantBasicUDDU   = jit.BasicUDDU
	VariantInsert      = jit.Insert
	VariantOrder       = jit.Order
	VariantInsertOrder = jit.InsertOrder
	VariantArray       = jit.Array
	VariantArrayInsert = jit.ArrayInsert
	VariantArrayOrder  = jit.ArrayOrder
	VariantAllPDE      = jit.AllPDE
	VariantAll         = jit.All
)

// Variants lists every variant in the paper's table order.
var Variants = jit.Variants

// Machine selects the target model.
type Machine = ir.Machine

// Supported machine models (section 4: IA64 zero-extends loads, PPC64
// sign-extends them).
const (
	IA64  = ir.IA64
	PPC64 = ir.PPC64
)

// Options configures a compilation.
type Options struct {
	Variant     Variant
	Machine     Machine
	MaxArrayLen int64 // the language's maxlen; 0 means Java's 0x7fffffff
	NoGeneral   bool  // disable the Figure 5 step (2) general optimizations
	WithProfile bool  // run the interpreter tier first for branch profiles

	// Parallelism sets the number of worker goroutines compiling functions
	// concurrently: 0 uses every CPU, 1 compiles sequentially. The compiled
	// program and all statistics are identical for every setting.
	Parallelism int

	// Checked runs the deep IR verifier at every phase boundary; a failing
	// function reverts to its pre-phase code (see Result.Fallbacks) instead
	// of aborting compilation.
	Checked bool

	// CheckedRun additionally executes the compiled program against the
	// Baseline-variant reference in the interpreter after compilation and
	// fails with an error on any output divergence or dynamic
	// extension-count regression.
	CheckedRun bool

	// ElimBudget caps the elimination phase's per-function analysis work;
	// exhaustion disables the phase for that function. 0 means unlimited.
	ElimBudget int

	// Peep enables the declarative rule-table peephole pass after the sign
	// extension phase: magic-number division, shift recombination, decided
	// branches, algebraic identities — each licensed by the value-range
	// facts the elimination phase proves.
	Peep bool

	// PeepRules restricts the peephole pass to the named table rules (see
	// RuleNames). Nil means every rule; unknown names fail compilation.
	PeepRules []string

	// Cache, when non-nil, serves per-function compilations from a shared
	// content-addressed cache (see NewCache, NewShardedCache,
	// NewPersistentCache) and stores misses into it. Warm hits are
	// bit-identical to the compile that populated the entry.
	Cache CacheHandle

	// Profile, when non-nil, feeds this branch profile to order
	// determination instead of gathering one (overrides WithProfile).
	// Profiles persisted by a tiered run (Profile.Marshal, sxelim
	// -profile-out) round-trip here.
	Profile Profile
}

// Cache is a shared, concurrency-safe, content-addressed per-function
// compilation cache with an LRU byte bound. One Cache may back any number of
// concurrent compilations; entries are keyed on the function's structural
// fingerprint plus every option that can change the compiled output.
type Cache = codecache.Cache

// CacheHandle is any cache topology the compiler accepts: a flat Cache, a
// Sharded cache (NewShardedCache), or a disk-backed persistent cache
// (NewPersistentCache).
type CacheHandle = codecache.Interface

// NewCache creates a compilation cache bounded to maxBytes resident bytes
// (estimated). maxBytes <= 0 yields a cache that stores at most one entry.
func NewCache(maxBytes int64) *Cache { return codecache.New(maxBytes) }

// NewShardedCache creates a compilation cache split over nShards
// independently locked LRU shards (0 = a sensible default), routed by
// content-address prefix — the topology for many concurrent compilations
// sharing one hot cache.
func NewShardedCache(maxBytes int64, nShards int) CacheHandle {
	return codecache.NewSharded(maxBytes, nShards)
}

// NewPersistentCache creates a sharded in-memory cache that writes every
// entry through to a crash-safe on-disk store rooted at dir and falls back
// to it on memory misses, so the warm set survives process restarts —
// including kill -9. Persisted entries are SHA-256-verified on load;
// corrupted files are quarantined and recompiled, never served.
func NewPersistentCache(dir string, maxBytes int64, nShards int) (CacheHandle, error) {
	disk, err := codecache.OpenDiskStore(dir, jit.PayloadCodec())
	if err != nil {
		return nil, err
	}
	return codecache.NewSpill(codecache.NewSharded(maxBytes, nShards), disk), nil
}

// CacheStats reports what Options.Cache did during one compilation.
type CacheStats = jit.CacheStats

// Fallback describes one optimizer phase that panicked, failed verification,
// or exhausted its work budget and was therefore disabled for one function.
// The compiled code is still correct: that function runs its pre-phase code.
type Fallback struct {
	Phase  string // pipeline phase that failed
	Func   string // function it was disabled for
	Reason string // one-line diagnosis
}

// Result is a compiled program.
type Result struct {
	res *jit.Result
	src *ir.Program
}

// StaticExts returns the number of extension instructions left in the code.
func (r *Result) StaticExts() int { return r.res.StaticExts }

// Eliminated returns how many extensions the optimizer removed.
func (r *Result) Eliminated() int { return r.res.Stats.Eliminated }

// Inserted returns how many extensions the insertion phase added.
func (r *Result) Inserted() int { return r.res.Stats.Inserted }

// PeepRewrites returns how many rule-table rewrites the peephole pass
// applied (0 unless Options.Peep was set).
func (r *Result) PeepRewrites() int { return r.res.PeepRewrites }

// IR returns the compiled program for inspection.
func (r *Result) IR() *ir.Program { return r.res.Prog }

// Fallbacks reports every phase the guarded pipeline disabled per function
// (after a panic, a verifier rejection, or budget exhaustion). Empty on a
// clean compile.
func (r *Result) Fallbacks() []Fallback {
	var fbs []Fallback
	for _, pe := range r.res.Fallbacks {
		fbs = append(fbs, Fallback{Phase: pe.Phase, Func: pe.Func, Reason: pe.Error()})
	}
	return fbs
}

// PhaseRecord is one compile-telemetry sample: wall time and counters for
// one phase of one function's compilation.
type PhaseRecord = jit.PhaseRecord

// Telemetry returns the per-function, per-phase compile-time records, sorted
// by function name. Their walls sum to exactly the compile work time.
func (r *Result) Telemetry() []PhaseRecord { return r.res.Telemetry }

// CacheStats reports this compile's cache hits and misses plus a snapshot of
// the shared cache's cumulative counters. It returns nil when the compile ran
// without a cache.
func (r *Result) CacheStats() *CacheStats { return r.res.CacheStats }

// Check runs the differential oracle against the Baseline-variant reference:
// identical output and traps, non-increasing dynamic extension count. It
// returns nil when the optimized program is observably sound.
func (r *Result) Check() error {
	_, err := jit.OracleCheck(r.src, r.res, "main")
	return err
}

// Format renders a compiled function as IR text.
func (r *Result) Format(fn string) string {
	f := r.res.Prog.Func(fn)
	if f == nil {
		return ""
	}
	return f.Format()
}

// Assembly lowers a compiled function to the machine model's instructions.
func (r *Result) Assembly(fn string) string {
	f := r.res.Prog.Func(fn)
	if f == nil {
		return ""
	}
	return target.Lower(f, r.res.Options.Machine).Format()
}

// RunResult is the outcome of executing a compiled program.
type RunResult struct {
	Output      string
	DynamicExts int64 // executed 32-bit sign extensions (Tables 1/2 metric)
	AllExts     int64 // executed extensions of every width
	Cycles      int64 // modelled machine cycles
	Steps       int64
}

// Run executes the compiled program's main function on the 64-bit machine
// model.
func (r *Result) Run() (*RunResult, error) {
	out, err := jit.Execute(r.res, "main")
	rr := &RunResult{}
	if out != nil {
		rr.Output = out.Output
		rr.DynamicExts = out.Ext32()
		rr.AllExts = out.ExtTotal()
		rr.Cycles = out.Cycles
		rr.Steps = out.Steps
	}
	return rr, err
}

// ReferenceRun executes the original (unconverted) program under 32-bit
// semantics — the oracle the optimized program must match.
func (r *Result) ReferenceRun() (string, error) {
	out, err := interp.Run(r.src, "main", interp.Options{Mode: interp.Mode32})
	if err != nil {
		return "", err
	}
	return out.Output, nil
}

// CompileSource compiles MiniJava source under the given options.
func CompileSource(src string, o Options) (*Result, error) {
	cu, err := minijava.Compile(src)
	if err != nil {
		return nil, err
	}
	return CompileProgram(cu.Prog, o)
}

// jitOptions maps facade options onto the pipeline's, with the resolved
// branch profile.
func (o Options) jitOptions(p Profile) jit.Options {
	return jit.Options{
		Variant:     o.Variant,
		Machine:     o.Machine,
		MaxArrayLen: o.MaxArrayLen,
		GeneralOpts: !o.NoGeneral,
		Profile:     p,
		Parallelism: o.Parallelism,
		Checked:     o.Checked || o.CheckedRun,
		ElimBudget:  o.ElimBudget,
		Peep:        o.Peep,
		PeepRules:   o.PeepRules,
		Cache:       o.Cache,
	}
}

// PeepRuleNames lists the peephole rule table's rule names in table order —
// the vocabulary Options.PeepRules accepts.
func PeepRuleNames() []string { return peep.RuleNames() }

// ValidatePeepRules checks a rule-name filter against the table, returning a
// descriptive error for any unknown name.
func ValidatePeepRules(names []string) error { return peep.ValidateRules(names) }

// CompileProgram compiles an IR program (in 32-bit form) under the given
// options. The input program is not modified.
func CompileProgram(prog *ir.Program, o Options) (*Result, error) {
	if err := peep.ValidateRules(o.PeepRules); err != nil {
		return nil, err
	}
	p := o.Profile
	if p == nil && o.WithProfile {
		var err error
		if p, err = jit.ProfileRun(prog, "main", 0); err != nil {
			return nil, err
		}
	}
	res, err := jit.Compile(prog, o.jitOptions(p))
	if err != nil {
		return nil, err
	}
	r := &Result{res: res, src: prog}
	if o.CheckedRun {
		if err := r.Check(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// Profile is a serializable branch profile: per-function call counts plus
// per-branch taken/fall-through totals, gathered by the interpreter tier.
// Marshal/Unmarshal give a deterministic JSON wire form (sxelim -profile-out
// / -profile-in).
type Profile = profile.Profile

// ParseProfile decodes a profile serialized with Profile.Marshal.
func ParseProfile(data []byte) (Profile, error) { return profile.Unmarshal(data) }

// Tier-runtime types re-exported for facade users.
type (
	// Promotion records one function's tier-up.
	Promotion = tiered.Promotion
	// TierState is one function's tier, hotness weight and promotion point.
	TierState = tiered.FuncState
	// TierTelemetry aggregates invocation counts, tier-ups and the
	// measured wall time of invocations and tier-up compiles.
	TierTelemetry = tiered.Telemetry
)

// TieredOptions configures RunTiered.
type TieredOptions struct {
	Options

	// Invocations is how many times main runs under the execution manager
	// (default 3).
	Invocations int

	// HotThreshold is the hotness weight (calls + branch events) at which a
	// function is promoted out of the interpreter tier. 0 selects the
	// default; negative never promotes.
	HotThreshold int64

	// MaxSteps bounds each invocation's interpreter steps (0 = default).
	MaxSteps int64

	// Seed warm-starts the profile, typically loaded with ParseProfile;
	// functions already hot in it promote before the first invocation.
	Seed Profile
}

// TieredResult is the outcome of a tiered execution.
type TieredResult struct {
	// Result is the steady-state artifact: the whole program compiled with
	// the gathered profile (bit-identical to the promoted bodies that ran).
	*Result

	// Outputs holds each invocation's program output, in order. All entries
	// are identical for a deterministic program — the tier mix never
	// changes observable behaviour.
	Outputs []string

	// Promotions lists every tier-up, in promotion order.
	Promotions []Promotion

	// States is the final per-function tier state, sorted by name.
	States []TierState

	// Telemetry aggregates the run's tier behaviour.
	Telemetry TierTelemetry

	// Profile is the gathered branch profile (persist with Marshal).
	Profile Profile
}

// RunTiered executes prog under the tiered runtime — every function starts
// in the profiling interpreter tier; functions crossing the hotness
// threshold are promoted through the full guarded jit pipeline with the
// profile gathered so far — and returns the steady-state compile plus tier
// telemetry. The input program is not modified.
func RunTiered(prog *ir.Program, o TieredOptions) (*TieredResult, error) {
	inv := o.Invocations
	if inv <= 0 {
		inv = 3
	}
	m, err := tiered.New(prog, tiered.Config{
		Options:      o.jitOptions(nil),
		Entry:        "main",
		HotThreshold: o.HotThreshold,
		MaxSteps:     o.MaxSteps,
		Seed:         o.Seed,
	})
	if err != nil {
		return nil, err
	}
	tr := &TieredResult{}
	for i := 0; i < inv; i++ {
		res, err := m.Invoke()
		if err != nil {
			return nil, err
		}
		tr.Outputs = append(tr.Outputs, res.Output)
	}
	final, err := m.Finalize()
	if err != nil {
		return nil, err
	}
	tr.Result = &Result{res: final, src: prog}
	tr.Promotions = m.Promotions()
	tr.States = m.States()
	tr.Telemetry = m.Telemetry()
	tr.Profile = m.Profile()
	if o.CheckedRun {
		if err := tr.Result.Check(); err != nil {
			return tr, err
		}
	}
	return tr, nil
}

// RunTieredSource is RunTiered over MiniJava source.
func RunTieredSource(src string, o TieredOptions) (*TieredResult, error) {
	cu, err := minijava.Compile(src)
	if err != nil {
		return nil, err
	}
	return RunTiered(cu.Prog, o)
}
