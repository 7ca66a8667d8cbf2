package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/progen"
	"signext/internal/workloads"
)

// daemonShaped returns n progen programs shaped like the daemon-mixed
// benchmark's traffic: 10 statements, 2 helper functions.
func daemonShaped(n int) []string {
	progs := make([]string, n)
	for i := range progs {
		progs[i] = progen.MiniJava(int64(9100+i), progen.Config{Stmts: 10, Funcs: 2})
	}
	return progs
}

// reference runs the untouched 32-bit program: the output and trap
// disposition every answer must reproduce.
func reference(t *testing.T, src string) (string, bool) {
	t.Helper()
	cu, err := minijava.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
	return res.Output, err != nil
}

// ask answers one request in process, failing the test on a non-200.
func ask(t *testing.T, s *Server, req CompileRequest) *CompileResponse {
	t.Helper()
	resp, status := s.compile(context.Background(), &req)
	if status != 200 {
		t.Fatalf("status %d: %s", status, resp.Error)
	}
	return resp
}

// askHit answers one request and reports whether a request entry served it:
// an entry hit is exactly one cache lookup, and a hit.
func askHit(t *testing.T, s *Server, req CompileRequest) (*CompileResponse, bool) {
	t.Helper()
	before := s.cache.Stats()
	resp := ask(t, s, req)
	after := s.cache.Stats()
	return resp, after.Hits-before.Hits == 1 && after.Misses == before.Misses
}

func newEntryServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Variant, cfg.Machine = jit.All, ir.IA64
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEntriesStayOffDisk: under CacheDir, request entries live in the memory
// tier only. A fresh program costs one disk lookup per function (the
// per-function cache) and none for its request key, and storing its request
// entry leaves the disk store's skipped count alone.
func TestEntriesStayOffDisk(t *testing.T) {
	s := newEntryServer(t, Config{CacheDir: t.TempDir()})
	src := daemonShaped(1)[0]
	cu, err := minijava.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	req := CompileRequest{Source: src, Run: true}

	before := s.disk.Stats()
	ask(t, s, req) // cold: every function misses memory and disk
	cold := s.disk.Stats()
	if n := cold.LoadMisses - before.LoadMisses; n != uint64(len(cu.Prog.Funcs)) {
		t.Errorf("fresh program cost %d disk load misses, want one per function (%d)", n, len(cu.Prog.Funcs))
	}
	ask(t, s, req) // all per-function hits: stores the request entry
	if st := s.disk.Stats(); st.Skipped != cold.Skipped || st.LoadMisses != cold.LoadMisses {
		t.Errorf("storing a request entry touched the disk store: before %+v, after %+v", cold, st)
	}
	if _, hit := askHit(t, s, req); !hit {
		t.Error("third request not served from its request entry")
	}
}

// TestEntryHitMatchesAllHitCompile: the first answer compiles cold, the
// second compiles from per-function hits and stores the request entry, the
// third is served from it. The entry's answer equals the all-hit compile's
// in every field but wall_ns, and all three agree on everything but cache
// traffic. (TestCompileRunMatchesReference holds the cold answers to the
// reference output.)
func TestEntryHitMatchesAllHitCompile(t *testing.T) {
	var srcs []string
	for _, wl := range workloads.All() {
		srcs = append(srcs, wl.Source)
	}
	srcs = append(srcs, daemonShaped(8)...)
	s := newEntryServer(t, Config{})
	for i, src := range srcs {
		req := CompileRequest{Source: src, Run: true}
		cold, coldHit := askHit(t, s, req)
		all, allHit := askHit(t, s, req)
		ent, entHit := askHit(t, s, req)
		if coldHit || allHit || !entHit {
			t.Fatalf("program %d: entry hits cold=%v all-hit=%v third=%v, want only the third", i, coldHit, allHit, entHit)
		}
		if cold.CacheMisses == 0 || all.CacheMisses != 0 {
			t.Fatalf("program %d: cache misses cold=%d all-hit=%d", i, cold.CacheMisses, all.CacheMisses)
		}
		all.WallNS, ent.WallNS = 0, 0
		if fmt.Sprintf("%+v", *all) != fmt.Sprintf("%+v", *ent) {
			t.Errorf("program %d: entry answer differs from the all-hit compile:\nall-hit %+v\nentry   %+v", i, *all, *ent)
		}
		cold.WallNS, cold.CacheHits, cold.CacheMisses = 0, all.CacheHits, 0
		if fmt.Sprintf("%+v", *cold) != fmt.Sprintf("%+v", *all) {
			t.Errorf("program %d: cold answer differs:\ncold    %+v\nall-hit %+v", i, *cold, *all)
		}
	}
}

// TestEntryDegradedUnderDeadline: a stored program whose deadline has
// passed by the time it holds a worker slot takes the full path and answers
// degraded, with the reference output.
func TestEntryDegradedUnderDeadline(t *testing.T) {
	var stall atomic.Bool
	s := newEntryServer(t, Config{FaultDelay: func() time.Duration {
		if stall.Load() {
			return 20 * time.Millisecond
		}
		return 0
	}})
	for i, src := range daemonShaped(4) {
		req := CompileRequest{Source: src, Run: true}
		ask(t, s, req)
		ask(t, s, req)
		if _, hit := askHit(t, s, req); !hit {
			t.Fatalf("program %d: premise: no request entry stored", i)
		}
		stall.Store(true)
		req.DeadlineMS = 1
		resp := ask(t, s, req)
		stall.Store(false)
		if !resp.Degraded || len(resp.DegradedFuncs) == 0 || resp.Eliminated != 0 {
			t.Fatalf("program %d: a stored program under a 1 ms deadline and a 20 ms stall answered undegraded: %+v", i, resp)
		}
		if out, trapped := reference(t, src); resp.Output != out || (resp.Trap != "") != trapped {
			t.Errorf("program %d: degraded answer %q (trap %q), reference %q", i, resp.Output, resp.Trap, out)
		}
	}
}

// TestEntryParanoidRejectsCorrupted: under Paranoid, a stored program
// corrupted in memory is caught by the deep verifier, rejected and counted,
// and the request recompiles to the correct answer.
func TestEntryParanoidRejectsCorrupted(t *testing.T) {
	s := newEntryServer(t, Config{Paranoid: true})
	src := daemonShaped(1)[0]
	req := CompileRequest{Source: src, Run: true}
	ask(t, s, req)
	want := ask(t, s, req)
	key := s.requestKey(&req, jit.All, ir.IA64, s.cfg.MaxSteps)
	v, ok := s.cache.Get(key)
	if !ok {
		t.Fatal("premise: no request entry stored")
	}
	// An ext of width 64 is structurally illegal; the deep verifier
	// rejects it.
	bad := v.(*requestEntry).prog.Func("main")
	ext := bad.NewInstr(ir.OpExt)
	ext.W = ir.W64
	ext.Dst, ext.Srcs[0], ext.NSrcs = 0, 0, 1
	bad.Entry().InsertAt(0, ext)

	rejects := s.cache.Stats().ParanoidRejects
	got := ask(t, s, req)
	if n := s.cache.Stats().ParanoidRejects - rejects; n != 1 {
		t.Fatalf("%d paranoid rejects, want 1", n)
	}
	if got.Output != want.Output || got.Trap != want.Trap || got.Degraded {
		t.Fatalf("answer after the reject %+v, want %+v", got, want)
	}
	if out, _ := reference(t, src); got.Output != out {
		t.Fatalf("output %q, reference %q", got.Output, out)
	}
	// The recompile stored a sound entry in the corrupted one's place.
	if _, hit := askHit(t, s, req); !hit {
		t.Error("the recompile did not store a fresh entry")
	}
	if n := s.cache.Stats().ParanoidRejects - rejects; n != 1 {
		t.Errorf("the fresh entry was rejected too (%d rejects)", n)
	}
}

// TestEntryConcurrentHits: many goroutines share one entry; every hit runs
// the shared bytecode and answers identically. Run it under -race.
func TestEntryConcurrentHits(t *testing.T) {
	s := newEntryServer(t, Config{})
	req := CompileRequest{Source: daemonShaped(1)[0], Run: true}
	ask(t, s, req)
	ask(t, s, req)
	want, hit := askHit(t, s, req)
	if !hit {
		t.Fatal("premise: no request entry stored")
	}
	before := s.cache.Stats()
	const goroutines, hits = 8, 50
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*hits)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < hits; i++ {
				r := req
				got, status := s.compile(context.Background(), &r)
				if status != 200 || got.Output != want.Output || got.Trap != want.Trap || got.Steps != want.Steps ||
					got.Cycles != want.Cycles || got.DynamicExts != want.DynamicExts {
					errs <- fmt.Sprintf("status %d, answer %+v, want %+v", status, got, want)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if st := s.cache.Stats(); st.Hits-before.Hits != goroutines*hits || st.Misses != before.Misses {
		t.Errorf("cache traffic %+v -> %+v, want %d entry hits and no misses", before, st, goroutines*hits)
	}
}

// TestRequestKeyInputs: changing any single keyed input changes the key, an
// explicit step limit equal to the default does not, and a changed request
// misses the stored entry.
func TestRequestKeyInputs(t *testing.T) {
	s := newEntryServer(t, Config{})
	src := daemonShaped(1)[0]
	base := CompileRequest{Source: src}
	key := func(s *Server, req CompileRequest, v jit.Variant, m ir.Machine) string {
		steps := s.cfg.MaxSteps
		if req.MaxSteps > 0 {
			steps = req.MaxSteps
		}
		k := s.requestKey(&req, v, m, steps)
		return string(k[:])
	}
	k0 := key(s, base, jit.All, ir.IA64)
	other := func(cfg Config) *Server { return newEntryServer(t, cfg) }
	changed := map[string]string{
		"source":   key(s, CompileRequest{Source: src + " "}, jit.All, ir.IA64),
		"kind":     key(s, CompileRequest{IR: src}, jit.All, ir.IA64),
		"variant":  key(s, base, jit.GenUse, ir.IA64),
		"machine":  key(s, base, jit.All, ir.PPC64),
		"arraylen": key(other(Config{MaxArrayLen: 1 << 20}), base, jit.All, ir.IA64),
		"budget":   key(other(Config{ElimBudget: 7}), base, jit.All, ir.IA64),
		"profile":  key(s, CompileRequest{Source: src, WithProfile: true}, jit.All, ir.IA64),
		"maxsteps": key(s, CompileRequest{Source: src, MaxSteps: 1000}, jit.All, ir.IA64),
	}
	for name, k := range changed {
		if k == k0 {
			t.Errorf("changing %s leaves the request key unchanged", name)
		}
	}
	if k := key(s, CompileRequest{Source: src, MaxSteps: s.cfg.MaxSteps}, jit.All, ir.IA64); k != k0 {
		t.Error("an explicit step limit equal to the default changes the key")
	}
	if k := key(s, CompileRequest{Source: src, Run: true, DeadlineMS: 5000}, jit.All, ir.IA64); k != k0 {
		t.Error("run or deadline, which are not keyed, change the key")
	}

	// End to end: with base stored, every single-field variation misses it.
	ask(t, s, base)
	ask(t, s, base)
	if _, hit := askHit(t, s, base); !hit {
		t.Fatal("premise: no request entry stored")
	}
	for name, req := range map[string]CompileRequest{
		"source":   {Source: src + " "},
		"variant":  {Source: src, Variant: "genuse"},
		"machine":  {Source: src, Machine: "ppc64"},
		"profile":  {Source: src, WithProfile: true},
		"maxsteps": {Source: src, MaxSteps: 1000},
	} {
		if _, hit := askHit(t, s, req); hit {
			t.Errorf("%s: a changed request was served from the stored entry", name)
		}
	}
}

// TestEntryEviction: under a cache too small for more than about one
// program, request entries are evicted like any other, and every answer
// stays correct.
func TestEntryEviction(t *testing.T) {
	srcs := daemonShaped(4)
	// Size the cache from one program's footprint: its functions plus its
	// request entry.
	probe := newEntryServer(t, Config{Shards: 1})
	req0 := CompileRequest{Source: srcs[0], Run: true}
	ask(t, probe, req0)
	ask(t, probe, req0)
	footprint := probe.cache.Stats().Bytes

	s := newEntryServer(t, Config{Shards: 1, CacheBytes: footprint * 3 / 2})
	entryHits := 0
	for round := 0; round < 2; round++ {
		for i, src := range srcs {
			req := CompileRequest{Source: src, Run: true}
			out, trapped := reference(t, src)
			for k := 0; k < 3; k++ {
				resp, hit := askHit(t, s, req)
				if hit {
					entryHits++
				}
				if resp.Output != out || (resp.Trap != "") != trapped {
					t.Fatalf("round %d program %d answer %d: %q (trap %q), reference %q", round, i, k, resp.Output, resp.Trap, out)
				}
			}
		}
	}
	st := s.cache.Stats()
	if st.Evictions == 0 || entryHits == 0 {
		t.Fatalf("premise: %d evictions, %d entry hits", st.Evictions, entryHits)
	}
	if _, ok := s.cache.Get(s.requestKey(&req0, jit.All, ir.IA64, s.cfg.MaxSteps)); ok {
		t.Error("the first program's request entry survived three later programs")
	}
}
