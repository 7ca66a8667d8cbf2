package jit

import (
	"sort"
	"time"

	"signext/internal/codecache"
	"signext/internal/extelim"
	"signext/internal/guard"
	"signext/internal/ir"
	"signext/internal/profile"
)

// PhaseCache is the telemetry phase name recorded for a function whose
// compiled form was served from Options.Cache. Its wall time is the lookup,
// clone and (in paranoid mode) re-verification cost; it lands in the
// Timing.Others bucket, so the disjoint SignExt/Chains/Others partition over
// Result.Telemetry is preserved on warm compiles.
const PhaseCache = "cache"

// CacheStats reports what Options.Cache did during one Compile call.
// Hits/Misses/ParanoidRejects count this compile's functions only; Shared is
// the cumulative snapshot of the (possibly shared) cache taken after the
// compile, carrying the global hit/miss/eviction counters and current size.
type CacheStats struct {
	Hits            int             `json:"hits"`
	Misses          int             `json:"misses"`
	ParanoidRejects int             `json:"paranoid_rejects,omitempty"`
	Shared          codecache.Stats `json:"shared"`
}

// cachePayload is one cache entry: the optimized function plus everything
// compileFunc produced for it. The stored function is cloned on both store
// and load, so cached IR is never aliased by a live program.
type cachePayload struct {
	fn         *ir.Func
	stats      extelim.Stats
	records    []PhaseRecord
	fallbacks  []*guard.PhaseError
	staticExts int
	rewrites   int
}

// cacheKey derives the content address of fn's compilation under o: the
// structural fingerprint plus the function name (branch profiles are keyed by
// name) and every option that can change the compiled output or its recorded
// outcome.
func cacheKey(fn *ir.Func, o Options) codecache.Key {
	w := codecache.NewKeyWriter()
	w.String("sxelim-func-v3")
	fp := fn.Fingerprint()
	w.Bytes(fp[:])
	w.String(fn.Name)
	w.Uint64(uint64(o.Variant))
	w.Uint64(uint64(o.Machine))
	w.Int64(o.MaxArrayLen)
	w.Bool(o.GeneralOpts)
	w.Bool(o.Checked)
	w.Int64(int64(o.ElimBudget))
	w.Bool(o.Peep)
	w.Uint64(uint64(len(o.PeepRules)))
	for _, r := range o.PeepRules {
		w.String(r)
	}
	profileSignature(w, fn.Name, o.Profile)
	return w.Key()
}

// profileSignature mixes the function's branch counts into the key in a
// deterministic order: the same program compiled under a different profile
// may legitimately pick a different surviving extension (order determination)
// and must not share cache entries. Entry counts stay out of the key, since
// order determination never reads them.
func profileSignature(w *codecache.KeyWriter, fname string, p profile.Profile) {
	var m map[int]profile.Counts
	if fp := p[fname]; fp != nil {
		m = fp.Branches
	}
	w.Uint64(uint64(len(m)))
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w.Int64(int64(id))
		w.Int64(m[id].Taken)
		w.Int64(m[id].Fall)
	}
}

// payloadSize estimates the resident bytes of a cache entry, charged against
// the cache's byte bound. It intentionally overestimates slightly: pointer
// and allocator overhead are real memory too.
func payloadSize(p *cachePayload) int64 {
	size := int64(256) + funcBytes(p.fn)
	size += 96 * int64(len(p.records))
	size += 256 * int64(len(p.fallbacks))
	return size
}

// funcBytes estimates the resident bytes of one function's IR.
func funcBytes(fn *ir.Func) int64 {
	var size int64
	for _, b := range fn.Blocks {
		size += 64
		size += 16 * int64(len(b.Succs)+len(b.Preds))
		for _, ins := range b.Instrs {
			size += 112 + int64(len(ins.Callee)) + 8*int64(len(ins.Args))
		}
	}
	return size
}

// ProgramBytes estimates the resident bytes of a compiled program with the
// same per-function measure the cache charges its entries, for other
// consumers of a shared codecache.Interface.
func ProgramBytes(p *ir.Program) int64 {
	size := int64(128)
	for _, fn := range p.Funcs {
		size += 128 + funcBytes(fn)
	}
	return size
}

// compileFuncCached wraps compileFunc with the content-addressed cache. A
// non-nil PhaseHook bypasses the cache entirely: hooked compiles are
// intentionally perturbable (fault injection) and must neither consume nor
// poison shared entries.
func compileFuncCached(fn *ir.Func, o Options) funcOutcome {
	// Deadline gone: degrade to the Convert64-only floor. Checked before any
	// cache traffic — a floored outcome must never be stored under (or
	// served as) the full compile's key.
	if o.ctxDone() {
		return compileFuncFloor(fn, o)
	}
	if o.Cache == nil || o.PhaseHook != nil {
		return compileFunc(fn, o)
	}
	key := cacheKey(fn, o)
	t0 := time.Now()
	if v, ok := o.Cache.Get(key); ok {
		p := v.(*cachePayload)
		clone := p.fn.Clone()
		if !o.Cache.Paranoid() || guard.VerifyFunc(clone, o.Machine) == nil {
			out := funcOutcome{
				stats:      p.stats,
				fallbacks:  p.fallbacks,
				replace:    clone,
				staticExts: p.staticExts,
				rewrites:   p.rewrites,
				cacheHit:   true,
			}
			// Replay the cold compile's counter telemetry with zero walls —
			// the work was not redone — and record the true hit cost under
			// the "cache" phase.
			for _, r := range p.records {
				r.Wall = 0
				out.records = append(out.records, r)
			}
			out.records = append(out.records, PhaseRecord{
				Func: fn.Name, Phase: PhaseCache, Wall: time.Since(t0),
			})
			return out
		}
		// Paranoid mode caught a corrupted entry: evict it and recompile.
		o.Cache.RejectParanoid(key)
		out := compileAndStore(fn, o, key)
		out.cacheRejected = true
		return out
	}
	return compileAndStore(fn, o, key)
}

// compileAndStore runs the real pipeline and stores the outcome under key.
// Fatal outcomes (conversion failures) are not cached: they abort the whole
// compile and carry context-dependent errors.
func compileAndStore(fn *ir.Func, o Options, key codecache.Key) funcOutcome {
	out := compileFunc(fn, o)
	if out.fatal != nil {
		return out
	}
	final := fn // compileFunc mutates fn in place...
	if out.replace != nil {
		final = out.replace // ...unless a fallback restored the snapshot
	}
	p := &cachePayload{
		fn:         final.Clone(),
		stats:      out.stats,
		records:    append([]PhaseRecord(nil), out.records...),
		fallbacks:  out.fallbacks,
		staticExts: out.staticExts,
		rewrites:   out.rewrites,
	}
	o.Cache.Put(key, p, payloadSize(p))
	return out
}
