package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"signext/internal/codecache"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/target"
)

// Config parameterizes a Server. The zero value is usable: variant "all" on
// ia64, a 64 MiB sharded in-memory cache, a 2 s default deadline, GOMAXPROCS
// worker slots and a 64-deep queue.
type Config struct {
	Variant     jit.Variant // default variant for requests that name none
	Machine     ir.Machine  // default machine model
	MaxArrayLen int64       // array-length bound threaded into compile and run

	CacheBytes int64  // in-memory cache budget; <0 disables the cache, 0 = 64 MiB
	Shards     int    // cache shard count, 0 = codecache.DefaultShards
	CacheDir   string // disk spill directory; "" = memory-only
	Paranoid   bool   // re-verify every cache hit with the deep verifier

	// DefaultDeadline bounds compiles whose request names no deadline;
	// MaxDeadline clamps what a request may ask for. Zero values select
	// 2 s and 30 s.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// MaxInflight bounds concurrently compiling requests (0 = GOMAXPROCS);
	// MaxQueue bounds requests waiting for a slot (0 = 64, <0 = no queue).
	// A request beyond both is answered 429 with a Retry-After hint.
	MaxInflight int
	MaxQueue    int

	ElimBudget int   // per-function elimination work cap, 0 = unlimited
	MaxSteps   int64 // default interpreter budget for run/profile, 0 = 50M

	// FaultDelay, when set, is called once per admitted request and the
	// returned duration slept before compiling. Chaos tests use it (backed
	// by guard.Injector.Delay) to push requests over their deadlines.
	FaultDelay func() time.Duration
}

const (
	defaultCacheBytes = 64 << 20
	defaultDeadline   = 2 * time.Second
	defaultMaxDead    = 30 * time.Second
	defaultMaxQueue   = 64
	defaultMaxSteps   = 50_000_000
)

// Server is the daemon: an http.Handler plus the shared cache, admission
// control and drain machinery. Create one with New, expose it with Serve
// (or mount Handler on any http.Server), stop it with Drain.
type Server struct {
	cfg   Config
	cache codecache.Interface  // nil when disabled
	mem   codecache.Interface  // cache's memory tier: holds the request entries
	disk  *codecache.DiskStore // nil without CacheDir

	sem     chan struct{} // worker slots; len = inflight
	pending atomic.Int64  // admitted requests (waiting + inflight)

	draining atomic.Bool
	inflight sync.WaitGroup // tracked /compile handlers, for Drain without Serve

	served   atomic.Int64
	degraded atomic.Int64
	rejected atomic.Int64
	failed   atomic.Int64

	lat latRing

	httpSrv *http.Server
}

// New builds a Server, opening the disk store when cfg.CacheDir is set.
func New(cfg Config) (*Server, error) {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = defaultCacheBytes
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = defaultDeadline
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = defaultMaxDead
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = defaultMaxQueue
	} else if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = defaultMaxSteps
	}

	s := &Server{cfg: cfg, sem: make(chan struct{}, cfg.MaxInflight)}
	if cfg.CacheBytes > 0 {
		mem := codecache.NewSharded(cfg.CacheBytes, cfg.Shards)
		mem.SetParanoid(cfg.Paranoid)
		s.mem = mem
		if cfg.CacheDir != "" {
			disk, err := codecache.OpenDiskStore(cfg.CacheDir, jit.PayloadCodec())
			if err != nil {
				return nil, fmt.Errorf("serve: open cache dir: %w", err)
			}
			s.disk = disk
			s.cache = codecache.NewSpill(mem, disk)
		} else {
			s.cache = mem
		}
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	return s, nil
}

// Handler returns the daemon's routes: POST /compile, GET /healthz,
// GET /statsz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/statsz", s.handleStats)
	return mux
}

// Serve accepts connections on l until Drain (or a listener error).
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Drain stops accepting new work and waits — bounded by ctx — for inflight
// requests to finish. New /compile requests are answered 503 the moment it
// is called; /healthz flips to 503 so load balancers stop routing here.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	return s.httpSrv.Shutdown(ctx)
}

// Stats snapshots the server's counters, cache state and latency window.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Served:   s.served.Load(),
		Degraded: s.degraded.Load(),
		Rejected: s.rejected.Load(),
		Failed:   s.failed.Load(),
		Inflight: len(s.sem),
		Draining: s.draining.Load(),
		Latency:  s.lat.stats(),
	}
	if q := int(s.pending.Load()) - st.Inflight; q > 0 {
		st.Queued = q
	}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
	}
	if s.disk != nil {
		d := s.disk.Stats()
		st.Disk = &d
	}
	return st
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

// writeJSON answers with status and a JSON body; encode failures are the
// client's connection dying, which needs no handling.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// reject answers an overload or drain condition with a Retry-After hint.
func (s *Server) reject(w http.ResponseWriter, status int, msg string) {
	s.rejected.Add(1)
	w.Header().Set("Retry-After", s.retryAfter())
	writeJSON(w, status, &CompileResponse{Error: msg})
}

// retryAfter estimates how long a client should back off: roughly one
// default deadline per queued request ahead of it, at least one second.
func (s *Server) retryAfter() string {
	waiting := int(s.pending.Load())
	secs := int64(time.Duration(waiting) * s.cfg.DefaultDeadline / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.FormatInt(secs, 10)
}

const maxRequestBytes = 8 << 20

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, "draining")
		return
	}

	// Admission: bound admitted requests (waiting + compiling) before
	// reading the body, so overload costs the server almost nothing. The
	// Add-then-check pattern is exact — each admitted request holds its
	// own increment, so the bound is never exceeded.
	bound := int64(s.cfg.MaxInflight + s.cfg.MaxQueue)
	if s.pending.Add(1) > bound {
		s.pending.Add(-1)
		s.reject(w, http.StatusTooManyRequests, "queue full")
		return
	}
	defer s.pending.Add(-1)
	s.inflight.Add(1)
	defer s.inflight.Done()

	var req CompileRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		s.failed.Add(1)
		writeJSON(w, http.StatusBadRequest, &CompileResponse{Error: "bad request body: " + err.Error()})
		return
	}

	resp, status := s.compile(r.Context(), &req)
	switch {
	case status != http.StatusOK:
		s.failed.Add(1)
	default:
		s.served.Add(1)
		if resp.Degraded {
			s.degraded.Add(1)
		}
		s.lat.record(resp.WallNS)
	}
	writeJSON(w, status, resp)
}

// compile resolves one request end to end: options, deadline, worker slot,
// jit pipeline, optional execution. It returns a response and HTTP status;
// only malformed input produces a non-200 — deadline exhaustion degrades,
// runtime traps are reported faithfully in the body.
//
// With a cache, a request whose exact inputs compiled before, cleanly and
// entirely from per-function hits, is answered from a request entry (see
// entry.go): no frontend, no compile, no bytecode build. It still takes a
// worker slot, sleeps FaultDelay and runs the program when asked to.
func (s *Server) compile(reqCtx context.Context, req *CompileRequest) (*CompileResponse, int) {
	start := time.Now()

	variant := s.cfg.Variant
	if req.Variant != "" {
		v, err := jit.ParseVariant(req.Variant)
		if err != nil {
			return &CompileResponse{Error: err.Error()}, http.StatusBadRequest
		}
		variant = v
	}
	machine := s.cfg.Machine
	if req.Machine != "" {
		m, err := ir.ParseMachine(req.Machine)
		if err != nil {
			return &CompileResponse{Error: err.Error()}, http.StatusBadRequest
		}
		machine = m
	}
	switch {
	case req.Source != "" && req.IR != "":
		return &CompileResponse{Error: "source and ir are mutually exclusive"}, http.StatusBadRequest
	case req.Source == "" && req.IR == "":
		return &CompileResponse{Error: "one of source or ir is required"}, http.StatusBadRequest
	}
	maxSteps := s.cfg.MaxSteps
	if req.MaxSteps > 0 {
		maxSteps = req.MaxSteps
	}

	var key codecache.Key
	var hit *requestEntry
	if s.mem != nil {
		key = s.requestKey(req, variant, machine, maxSteps)
		if v, ok := s.mem.Get(key); ok {
			hit = v.(*requestEntry)
		}
	}
	var prog *ir.Program
	if hit == nil {
		p, resp := frontend(req)
		if resp != nil {
			return resp, http.StatusBadRequest
		}
		prog = p
	}

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(reqCtx, deadline)
	defer cancel()

	// The deadline covers queueing: a request that waited too long for a
	// slot compiles at the floor instead of blocking its successors.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	if s.cfg.FaultDelay != nil {
		if d := s.cfg.FaultDelay(); d > 0 {
			time.Sleep(d)
		}
	}

	// A hit whose deadline has passed, or whose stored code fails the
	// paranoid check, takes the full path: the frontend, then a compile
	// that is floored or recompiles.
	if hit != nil && (jit.Expired(ctx) || !s.entryVerified(hit, key, machine)) {
		hit = nil
		p, resp := frontend(req)
		if resp != nil {
			return resp, http.StatusBadRequest
		}
		prog = p
	}

	var resp *CompileResponse
	var code *interp.Code
	if hit != nil {
		r := hit.resp
		resp, prog, code = &r, hit.prog, hit.code
	} else {
		opts := jit.Options{
			Variant:     variant,
			Machine:     machine,
			MaxArrayLen: s.cfg.MaxArrayLen,
			GeneralOpts: true,
			Checked:     true,
			Parallelism: 1, // concurrency comes from requests, not per-request fan-out
			ElimBudget:  s.cfg.ElimBudget,
			Cache:       s.cache,
			Ctx:         ctx,
		}
		if req.WithProfile && ctx.Err() == nil {
			// A failed profile run (trap, step limit) is not fatal: compile
			// without order determination rather than refuse the request.
			if p, err := jit.ProfileRun(prog, "main", maxSteps); err == nil {
				opts.Profile = p
			}
		}

		res, err := jit.Compile(prog, opts)
		if err != nil {
			// Fatal pipeline errors mean malformed input that slipped past the
			// front end (e.g. hand-written IR failing conversion).
			return &CompileResponse{Error: "compile: " + err.Error()}, http.StatusBadRequest
		}

		resp = &CompileResponse{
			Eliminated:    res.Stats.Eliminated,
			Inserted:      res.Stats.Inserted,
			StaticExts:    res.StaticExts,
			Degraded:      len(res.Degraded) > 0 || len(res.Fallbacks) > 0,
			DegradedFuncs: res.Degraded,
			Fallbacks:     len(res.Fallbacks),
		}
		if res.CacheStats != nil {
			resp.CacheHits = res.CacheStats.Hits
			resp.CacheMisses = res.CacheStats.Misses
		}
		prog = res.Prog
		if admit(res) {
			code = s.store(key, res.Prog, resp)
		}
	}

	if req.Run {
		ropts := interp.Options{
			Mode:        interp.Mode64,
			Machine:     machine,
			Cost:        target.CostModel(machine),
			MaxArrayLen: s.cfg.MaxArrayLen,
			MaxSteps:    maxSteps,
		}
		var out *interp.Result
		var rerr error
		if code != nil {
			out, rerr = code.Run("main", ropts)
		} else {
			out, rerr = interp.Run(prog, "main", ropts)
		}
		if rerr != nil {
			resp.Trap = rerr.Error()
		}
		if out != nil {
			resp.Output = out.Output
			resp.DynamicExts = out.ExtTotal()
			resp.Cycles = out.Cycles
			resp.Steps = out.Steps
		}
	}

	resp.WallNS = time.Since(start).Nanoseconds()
	return resp, http.StatusOK
}

// frontend parses the request's MiniJava source or IR text. A non-nil
// response is the 400 answer for input that does not parse.
func frontend(req *CompileRequest) (*ir.Program, *CompileResponse) {
	if req.Source != "" {
		cu, err := minijava.Compile(req.Source)
		if err != nil {
			return nil, &CompileResponse{Error: "minijava: " + err.Error()}
		}
		return cu.Prog, nil
	}
	p, err := ir.ParseProgram(req.IR)
	if err != nil {
		return nil, &CompileResponse{Error: "ir: " + err.Error()}
	}
	return p, nil
}

// latRing is a fixed sliding window of recent request latencies; quantiles
// sort a copy, so recording stays O(1) under the lock.
type latRing struct {
	mu    sync.Mutex
	buf   [4096]int64
	count int64
	max   int64
}

func (r *latRing) record(ns int64) {
	r.mu.Lock()
	r.buf[r.count%int64(len(r.buf))] = ns
	r.count++
	if ns > r.max {
		r.max = ns
	}
	r.mu.Unlock()
}

func (r *latRing) stats() LatencyStats {
	r.mu.Lock()
	n := r.count
	if n > int64(len(r.buf)) {
		n = int64(len(r.buf))
	}
	window := make([]int64, n)
	copy(window, r.buf[:n])
	st := LatencyStats{Count: r.count, MaxNS: r.max}
	r.mu.Unlock()
	if n == 0 {
		return st
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	st.P50NS = window[n/2]
	st.P99NS = window[(n*99)/100]
	return st
}
