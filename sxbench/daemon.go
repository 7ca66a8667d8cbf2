package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"signext/internal/codecache"
	"signext/internal/guard"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/progen"
	"signext/internal/serve"
)

// The daemon-mixed traffic: an open loop at a fixed rate from at most two
// connections. The rate is about a quarter of the daemon's capacity on two
// cores; much higher, and queueing makes latency swing between runs. Most
// requests come from a hot set the set-up compiles; the rest are fresh
// programs, each sent once.
const (
	daemonRate    = 40.0 // requests per second
	daemonConns   = 2
	daemonHot     = 16
	daemonHotFrac = 0.8
	statszEvery   = 250 * time.Millisecond
	replayMax     = 200 // requests of the stream the traced run replays in process
	requestLimit  = 30 * time.Second
)

var daemonProgram = progen.Config{Stmts: 10, Funcs: 2}

// daemonHotPins are the exact counts of the daemon-mixed hot set, compiled
// with the daemon's options.
var daemonHotPins = counts{dynExts: 79, cycles: 128787, insns: 6277}

// daemonOptions are the jit options serve compiles a request with, less
// its cache and deadline.
func daemonOptions() jit.Options {
	return jit.Options{Variant: jit.All, Machine: ir.IA64, GeneralOpts: true, Checked: true, Parallelism: 1}
}

type request struct {
	prog *batchProg
	hot  bool
}

// exchange is one request's timeline and answer.
type exchange struct {
	due, start, done time.Time
	resp             *serve.CompileResponse
	err              error
}

// daemon is an in-process serve.Server on a unix socket.
type daemon struct {
	srv  *serve.Server
	sock string
	done chan error
}

func startDaemon(sock string) (*daemon, error) {
	srv, err := serve.New(serve.Config{Variant: jit.All, Machine: ir.IA64})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, sock: sock, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(l) }()
	return d, nil
}

// client returns a client with its own connection. It never retries: a
// refused request is an error the run counts, not one to hide.
func (d *daemon) client() *serve.Client {
	cl := serve.Dial("unix", d.sock)
	cl.MaxRetries = 0
	return cl
}

// stop drains the daemon and waits for its accept loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestLimit)
	defer cancel()
	err := d.srv.Drain(ctx)
	if serr := <-d.done; err == nil {
		err = serr
	}
	return err
}

func compileReq(cl *serve.Client, bp *batchProg) (*serve.CompileResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestLimit)
	defer cancel()
	return cl.Compile(ctx, &serve.CompileRequest{Source: bp.src, Run: true})
}

func checkAnswer(bp *batchProg, resp *serve.CompileResponse) error {
	switch {
	case resp.Trap != "":
		return fmt.Errorf("%s: trapped: %s", bp.name, resp.Trap)
	case resp.Output != bp.want:
		return fmt.Errorf("%s: output differs from the reference", bp.name)
	}
	return nil
}

// hotAnswer is what the daemon must answer for a hot program.
type hotAnswer struct{ cycles, exts int64 }

// hotCounts compiles the hot set in process with the daemon's options. It
// gives the exact counts and, per program, the cycles and extensions (all
// widths) the daemon's answers must report.
func hotCounts(hot []*batchProg) ([]hotAnswer, counts, error) {
	each := make([]hotAnswer, len(hot))
	var total counts
	for i, h := range hot {
		cu, err := minijava.Compile(h.src)
		if err != nil {
			return nil, total, fmt.Errorf("%s: frontend: %w", h.name, err)
		}
		res, err := jit.Compile(cu.Prog, daemonOptions())
		if err != nil {
			return nil, total, fmt.Errorf("%s: compile: %w", h.name, err)
		}
		out, err := jit.Execute(res, "main")
		if err != nil || out.Output != h.want {
			return nil, total, fmt.Errorf("%s: in-process run disagrees with the reference (%v)", h.name, err)
		}
		each[i] = hotAnswer{cycles: out.Cycles, exts: out.ExtTotal()}
		total.dynExts += out.Ext32()
		total.cycles += out.Cycles
		total.insns += codeInsns(res.Prog)
	}
	return each, total, nil
}

// fill sends every hot program once and checks each answer against the
// reference output and the in-process compile.
func (d *daemon) fill(hot []*batchProg, want []hotAnswer) error {
	cl := d.client()
	for i, h := range hot {
		resp, err := compileReq(cl, h)
		if err == nil {
			err = checkAnswer(h, resp)
		}
		if err == nil && (resp.Cycles != want[i].cycles || resp.DynamicExts != want[i].exts) {
			err = fmt.Errorf("%s: the daemon answered %d cycles and %d extensions, an in-process compile gives %d and %d",
				h.name, resp.Cycles, resp.DynamicExts, want[i].cycles, want[i].exts)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// drive sends the stream open loop: request i falls due at start + i/rate,
// whatever became of earlier ones. Each of the daemonConns workers owns a
// client with one connection and takes requests as they fall due; a request
// that finds every worker busy waits, and since latency runs from when a
// request was due, that wait counts.
func drive(d *daemon, stream []request) []exchange {
	out := make([]exchange, len(stream))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < daemonConns; w++ {
		cl := d.client()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i].start = time.Now()
				out[i].resp, out[i].err = compileReq(cl, stream[i].prog)
				out[i].done = time.Now()
			}
		}()
	}
	gap := time.Duration(float64(time.Second) / daemonRate)
	start := time.Now().Add(gap)
	for i := range stream {
		out[i].due = start.Add(time.Duration(i) * gap)
		time.Sleep(time.Until(out[i].due))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// sampler polls /statsz on its own connection.
type sampler struct {
	stop, done       chan struct{}
	queued, inflight []float64
	err              error
}

func startSampler(d *daemon) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	cl := d.client()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(statszEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			ctx, cancel := context.WithTimeout(context.Background(), requestLimit)
			st, err := cl.Stats(ctx)
			cancel()
			if err != nil {
				s.err = err
				return
			}
			s.queued = append(s.queued, float64(st.Queued))
			s.inflight = append(s.inflight, float64(st.Inflight))
		}
	}()
	return s
}

// halt stops the sampler and waits for it to exit.
func (s *sampler) halt() {
	close(s.stop)
	<-s.done
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// runDaemonMixed drives an in-process daemon with the seeded stream.
func runDaemonMixed(p params) (*report, error) {
	nHot := daemonHot
	if p.small {
		nHot = 4
	}
	// The hot set has fixed seeds, so its exact counts do not depend on
	// --seed. Every program and reference is made before set-up starts.
	hot := make([]*batchProg, nHot)
	for i := range hot {
		bp, err := genProg(int64(1000+i), daemonProgram)
		if err != nil {
			return nil, err
		}
		hot[i] = bp
	}
	rng := rand.New(rand.NewSource(p.seed))
	stream := make([]request, max(1, int(p.seconds.Seconds()*daemonRate)))
	fresh := 0
	for i := range stream {
		if rng.Float64() < daemonHotFrac {
			stream[i] = request{prog: hot[rng.Intn(len(hot))], hot: true}
			continue
		}
		bp, err := genProg(rng.Int63(), daemonProgram)
		if err != nil {
			return nil, err
		}
		stream[i] = request{prog: bp}
		fresh++
	}
	want, exact, err := hotCounts(hot)
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return nil, err
	}
	sockDir, err := os.MkdirTemp(p.out, "sock")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(sockDir)
	sock := filepath.Join(sockDir, "d.sock")

	// Set-up: daemon start plus the hot-set fill, several times; the last
	// daemon serves the timed window.
	rep := newReport()
	var setup []float64
	var d *daemon
	for s := 0; s < p.setups; s++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("set-up: stop: %w", err)
			}
		}
		t0 := time.Now()
		if d, err = startDaemon(sock); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := d.fill(hot, want); err != nil {
			d.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	var tr *tracer
	var smp *sampler
	if p.traced {
		tr = newTracer()
		rep.spans = tr
		smp = startSampler(d)
	}
	st0 := d.srv.Stats()
	u0 := getUsage()
	res := drive(d, stream)
	u1 := getUsage()
	st1 := d.srv.Stats()
	if smp != nil {
		smp.halt()
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}

	gap := time.Duration(float64(time.Second) / daemonRate)
	var lat, late, hitLat, missLat []float64
	var errs, degraded, fallbacks int
	for i, x := range res {
		rep.attempted++
		lat = append(lat, ms(x.done.Sub(x.due)))
		late = append(late, ms(x.start.Sub(x.due)))
		err := x.err
		if err == nil {
			err = checkAnswer(stream[i].prog, x.resp)
		}
		if err != nil {
			errs++
			rep.failf("request %d: %v", i, err)
			continue
		}
		fallbacks += x.resp.Fallbacks
		if x.resp.Degraded {
			degraded++
			rep.failf("request %d: %s: degraded answer", i, stream[i].prog.name)
		}
		if x.resp.CacheMisses == 0 {
			hitLat = append(hitLat, lat[i])
		} else {
			missLat = append(missLat, lat[i])
		}
	}
	rep.failed = errs + degraded
	if p99 := percentile(late, 0.99); p99 > ms(gap) {
		rep.failf("invalid run: the load generator ran late, p99 %.2f ms against a %.2f ms inter-arrival gap", p99, ms(gap))
	}
	n := float64(len(res))
	window := res[len(res)-1].done.Sub(res[0].due)
	rep.note("params rate_per_s=%g conns=%d hot=%d hot_frac=%g stmts=%d funcs=%d variant=all machine=ia64 checked=true cache=64MiB-sharded",
		daemonRate, daemonConns, len(hot), daemonHotFrac, daemonProgram.Stmts, daemonProgram.Funcs)
	rep.note("requests=%d fresh=%d hits=%d misses=%d window_s=%.3f error_frac=%g degraded_frac=%g late_ms_p99=%.3f",
		len(res), fresh, len(hitLat), len(missLat), window.Seconds(), float64(errs)/n, float64(degraded)/n, percentile(late, 0.99))
	rep.note("exact_counts dyn_exts=%d model_cycles=%d code_insns=%d over the hot set",
		exact.dynExts, exact.cycles, exact.insns)
	if !p.small && exact != daemonHotPins {
		rep.failf("exact counts %+v differ from the pinned %+v", exact, daemonHotPins)
	}

	if !p.traced {
		rep.setSamples("setup_s", median(setup), setup)
		rep.setSamples("latency_p50_ms", percentile(lat, 0.50), lat)
		rep.set("latency_p90_ms", percentile(lat, 0.90))
		rep.set("latency_p99_ms", percentile(lat, 0.99))
		rep.set("cpu_ms_per_op", ms(u1.cpu-u0.cpu)/n)
		rep.set("peak_rss_mb", float64(u1.maxRSS)/(1<<20))
		rep.set("dyn_exts", float64(exact.dynExts))
		rep.set("model_cycles", float64(exact.cycles))
		rep.set("code_insns", float64(exact.insns))
		return rep, nil
	}

	// Traced run: a client span per request, split into generator
	// lateness, the daemon's own wall time (wall_ns) and the rest, which is
	// transport: JSON, HTTP and the socket.
	var server, transport []float64
	for i, x := range res {
		if x.err != nil {
			continue
		}
		root := tr.record(i, -1, "serve.transport", x.due, x.done)
		tr.record(i, root, "loadgen.late", x.due, x.start)
		tr.add(root, "serve.server", time.Duration(x.resp.WallNS))
		server = append(server, float64(x.resp.WallNS)/1e6)
		transport = append(transport, lat[i]-late[i]-float64(x.resp.WallNS)/1e6)
	}
	if smp.err != nil {
		rep.failf("statsz sampler: %v", smp.err)
	}
	rep.setSamples("serve.server_ms", mean(server), server)
	rep.setSamples("serve.transport_ms", mean(transport), transport)
	rep.setSamples("serve.queue_depth", mean(smp.queued), smp.queued)
	rep.setSamples("serve.inflight", mean(smp.inflight), smp.inflight)
	rep.setSamples("serve.hit_ms_p50", median(hitLat), hitLat)
	rep.setSamples("serve.miss_ms_p50", median(missLat), missLat)
	rep.set("serve.rejected", float64(st1.Rejected-st0.Rejected))
	rep.setSamples("loadgen.late_ms_p99", percentile(late, 0.99), late)
	hits, misses := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses
	rep.set("codecache.hits", float64(hits))
	rep.set("codecache.misses", float64(misses))
	rep.set("codecache.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	rep.set("codecache.evictions", float64(st1.Cache.Evictions-st0.Cache.Evictions))
	rep.set("codecache.bytes", float64(st1.Cache.Bytes))
	rep.set("guard.fallbacks", float64(fallbacks))
	rep.set("op.error_frac", float64(errs)/n)
	rep.set("op.degraded_frac", float64(degraded)/n)
	if err := replay(rep, tr, len(res), hot, stream); err != nil {
		return nil, err
	}
	return rep, nil
}

// timedCache wraps the daemon's cache type with a span around every Get and
// Put. jit.Compile with Parallelism 1 calls it on the compiling goroutine, so
// the current op and parent span are plain fields.
type timedCache struct {
	codecache.Interface
	tr         *tracer
	op, parent int
	gets, puts int
}

func (c *timedCache) Get(k codecache.Key) (any, bool) {
	id := c.tr.begin(c.op, c.parent, "codecache.get")
	defer c.tr.end(id)
	c.gets++
	return c.Interface.Get(k)
}

func (c *timedCache) Put(k codecache.Key, v any, size int64) {
	id := c.tr.begin(c.op, c.parent, "codecache.put")
	defer c.tr.end(id)
	c.puts++
	c.Interface.Put(k, v, size)
}

// phaseSpan maps jit's own per-phase telemetry (Result.Telemetry) onto the
// layer names the batch workloads measure from outside. Inside a daemon
// compile the phases cannot be wrapped one by one, and chain construction
// and value ranges are one record.
var phaseSpan = map[string]string{
	jit.PhaseInlining: "opt.inline",
	jit.PhaseConvert:  "extelim.convert",
	jit.PhaseOpts:     "opt",
	jit.PhaseSignExt:  "extelim.elim",
	jit.PhaseChains:   spanChainTime,
}

// plainOp is one request served in process without tracing: frontend,
// jit.Compile with the daemon's options and cache, and execution.
func plainOp(bp *batchProg, opts jit.Options) error {
	cu, err := minijava.Compile(bp.src)
	if err != nil {
		return err
	}
	res, err := jit.Compile(cu.Prog, opts)
	if err != nil {
		return err
	}
	out, err := jit.Execute(res, "main")
	if err == nil && out.Output != bp.want {
		err = fmt.Errorf("output differs from the reference")
	}
	return err
}

// replay sends the first replayMax requests of the stream in process
// through jit.Compile with the daemon's options and a timedCache, after
// filling the cache with the hot set as the daemon's set-up does. Program
// cloning, fingerprinting and deep verification run inside jit.Compile
// where they cannot be wrapped; each is probed with one extra call of its
// public entry point per request (verification only on requests that
// compiled a function). Each traced request is paired with the same request
// served untraced through a second cache, filled the same way, so both see
// the same hits and misses; the pair gives the tracing overhead.
func replay(rep *report, tr *tracer, firstOp int, hot []*batchProg, stream []request) error {
	opts := daemonOptions()
	plain := daemonOptions()
	mem, plainMem := codecache.NewSharded(64<<20, 0), codecache.NewSharded(64<<20, 0)
	opts.Cache, plain.Cache = mem, plainMem
	for _, h := range hot {
		for _, o := range []jit.Options{opts, plain} {
			if err := plainOp(h, o); err != nil {
				return fmt.Errorf("replay set-up: %s: %w", h.name, err)
			}
		}
	}
	tc := &timedCache{Interface: mem, tr: tr}
	opts.Cache = tc
	n := min(len(stream), replayMax)
	var srcBytes, steps, eliminated, inserted, remaining int64
	var tracedWall, plainWall time.Duration
	for i := 0; i < n; i++ {
		bp := stream[i].prog
		op := firstOp + i
		t0 := time.Now()
		root := tr.begin(op, -1, spanOp)
		var ast *minijava.ProgramAST
		var cu *minijava.CompileUnit
		var res *jit.Result
		var out *interp.Result
		var err error
		tr.call(op, root, "minijava.parse", func() { ast, err = minijava.Parse(bp.src) })
		if err == nil {
			tr.call(op, root, "minijava.lower", func() { cu, err = minijava.Lower(ast) })
		}
		if err == nil {
			tr.call(op, root, "jit.clone", func() { cu.Prog.Clone() })
			tr.call(op, root, "jit.fingerprint", func() {
				for _, fn := range cu.Prog.Funcs {
					fn.Fingerprint()
				}
			})
			jc := tr.begin(op, root, spanJit)
			tc.op, tc.parent = op, jc
			res, err = jit.Compile(cu.Prog, opts)
			tr.end(jc)
			if err == nil {
				for _, rec := range res.Telemetry {
					if name, ok := phaseSpan[rec.Phase]; ok && rec.Wall > 0 {
						tr.add(jc, name, rec.Wall)
					}
				}
				if res.CacheStats.Misses > 0 {
					tr.call(op, root, "guard.verify", func() { err = guard.VerifyProgram(res.Prog, ir.IA64) })
				}
			}
		}
		if err == nil {
			tr.call(op, root, "interp.run", func() { out, err = jit.Execute(res, "main") })
		}
		tr.end(root)
		tracedWall += time.Since(t0)
		if err == nil && out.Output != bp.want {
			err = fmt.Errorf("output differs from the reference")
		}
		if err == nil {
			t1 := time.Now()
			err = plainOp(bp, plain)
			plainWall += time.Since(t1)
		}
		if err != nil {
			return fmt.Errorf("replay of %s: %w", bp.name, err)
		}
		srcBytes += int64(len(bp.src))
		steps += out.Steps
		eliminated += int64(res.Stats.Eliminated)
		inserted += int64(res.Stats.Inserted)
		remaining += int64(res.StaticExts)
	}

	ops := map[int]*opTimes{}
	for op, ot := range tr.times() {
		if op >= firstOp {
			ops[op] = ot
		}
	}
	sum := totals(ops)
	per := func(names ...string) float64 {
		var d time.Duration
		for _, name := range names {
			d += sum[name]
		}
		return ms(d) / float64(n)
	}
	rep.set("minijava.ms", per("minijava.parse", "minijava.lower"))
	rep.set("minijava.ns_per_byte", ratio(float64(sum["minijava.parse"]+sum["minijava.lower"]), float64(srcBytes)))
	rep.set("opt.inline.ms", per("opt.inline"))
	rep.set("jit.clone_ms", per("jit.clone"))
	rep.set("jit.fingerprint_ms", per("jit.fingerprint"))
	rep.set("codecache.get_ms", ratio(ms(sum["codecache.get"]), float64(tc.gets)))
	rep.set("codecache.put_ms", ratio(ms(sum["codecache.put"]), float64(tc.puts)))
	rep.set("opt.ms", per("opt"))
	rep.set("extelim.convert_ms", per("extelim.convert"))
	rep.set("chains.ms", per(spanChainTime))
	rep.set("extelim.elim_ms", per("extelim.elim"))
	rep.set("extelim.eliminated", float64(eliminated)/float64(n))
	rep.set("extelim.inserted", float64(inserted)/float64(n))
	rep.set("extelim.remaining", float64(remaining)/float64(n))
	setTable3(rep, ops, "extelim.elim", spanChainTime,
		[]string{"opt.inline", "extelim.convert", "opt", "extelim.elim", spanChainTime})
	rep.set("guard.verify_ms", per("guard.verify"))
	rep.set("interp.run_ms", per("interp.run"))
	rep.set("interp.steps", float64(steps)/float64(n))
	rep.set("interp.ns_per_step", ratio(float64(sum["interp.run"]), float64(steps)))
	rep.set("trace.overhead_pct", 100*ratio(float64(tracedWall-plainWall), float64(plainWall)))
	rep.unattributed = unattributedPct(ops, spanOp)
	rep.note("replayed=%d cache_gets=%d cache_puts=%d trace_unattributed_pct=%.2f",
		n, tc.gets, tc.puts, rep.unattributed)
	rep.note("on daemon-mixed chains.ms is chain and value-range construction together (jit telemetry), and guard.verify_ms one VerifyProgram probe per replayed request that compiled")
	rep.note("on daemon-mixed trace.overhead_pct is traced against untraced replayed requests; the /statsz sampler runs through the whole traced stream, and its effect on the daemon's latency is not in it")
	return nil
}
