// Package serve is the fault-tolerant compile daemon behind cmd/sxelimd: a
// long-lived server that accepts concurrent compile/run requests over HTTP
// (usually on a unix socket) and is engineered to degrade rather than lie or
// die. Per-request deadlines thread into the jit pipeline as a
// context.Context; an expired deadline floors the remaining functions to
// guarded Convert64-only code and marks the response degraded — the answer
// is still correct, just unoptimized. Admission control bounds the queue and
// answers overload with 429 + Retry-After instead of unbounded goroutines,
// and the warm set lives in a crash-safe disk-spill cache that survives
// kill -9.
package serve

import "signext/internal/codecache"

// CompileRequest is the body of POST /compile. Exactly one of Source
// (MiniJava) or IR (signext IR text, ir.ParseProgram syntax) must be set.
type CompileRequest struct {
	Source string `json:"source,omitempty"` // MiniJava source
	IR     string `json:"ir,omitempty"`     // IR text; mutually exclusive with Source

	Variant string `json:"variant,omitempty"` // short name (see jit.ParseVariant); "" = server default
	Machine string `json:"machine,omitempty"` // "ia64" or "ppc64"; "" = server default

	// Run executes the compiled program on the 64-bit machine model and
	// fills the dynamic fields of the response.
	Run bool `json:"run,omitempty"`

	// WithProfile gathers a branch profile (a 32-bit interpreter run)
	// before compiling, enabling order determination. Skipped when the
	// deadline has already expired — profiled compilation of floored code
	// would be wasted work.
	WithProfile bool `json:"with_profile,omitempty"`

	// DeadlineMS bounds this request's compile in milliseconds. 0 selects
	// the server default; values above the server maximum are clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// MaxSteps bounds the interpreter when Run (or WithProfile) is set.
	// 0 selects the server default.
	MaxSteps int64 `json:"max_steps,omitempty"`
}

// CompileResponse is the body of a 200 answer. Error-status answers (400,
// 429, 500, 503) carry only Error, plus Retry-After as an HTTP header where
// applicable.
type CompileResponse struct {
	// Static compile results.
	Eliminated int `json:"eliminated"`
	Inserted   int `json:"inserted"`
	StaticExts int `json:"static_exts"`

	// Degradation facts. Degraded is true when any function was floored by
	// the deadline or disabled by a guarded-phase fallback; the code is
	// correct either way.
	Degraded      bool     `json:"degraded"`
	DegradedFuncs []string `json:"degraded_funcs,omitempty"`
	Fallbacks     int      `json:"fallbacks,omitempty"`

	// Cache traffic for this request (not cumulative).
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`

	// Dynamic results, present when Run was set. A runtime trap is a
	// faithful answer, not a server error: Trap carries its message and
	// Output whatever was printed before it.
	Output      string `json:"output,omitempty"`
	Trap        string `json:"trap,omitempty"`
	DynamicExts int64  `json:"dynamic_exts,omitempty"`
	Cycles      int64  `json:"cycles,omitempty"`
	Steps       int64  `json:"steps,omitempty"`

	WallNS int64 `json:"wall_ns"`

	// Error is set on non-200 answers: a malformed request, an unknown
	// variant, a front-end parse failure.
	Error string `json:"error,omitempty"`
}

// ServerStats is the body of GET /statsz.
type ServerStats struct {
	Served   int64 `json:"served"`   // 200 answers
	Degraded int64 `json:"degraded"` // 200 answers with Degraded set
	Rejected int64 `json:"rejected"` // 429/503 answers
	Failed   int64 `json:"failed"`   // 400/500 answers

	Inflight int  `json:"inflight"` // requests holding a worker slot now
	Queued   int  `json:"queued"`   // requests waiting for a slot now
	Draining bool `json:"draining"`

	Cache codecache.Stats      `json:"cache"`
	Disk  *codecache.DiskStats `json:"disk,omitempty"` // nil without a cache dir

	Latency LatencyStats `json:"latency"`
}

// LatencyStats summarizes the sliding window of recent /compile latencies.
type LatencyStats struct {
	Count int64 `json:"count"` // total requests measured (window may be smaller)
	P50NS int64 `json:"p50_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`
}
