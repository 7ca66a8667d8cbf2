package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"signext/internal/interp"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/workloads"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Variant == 0 {
		// Config zero value is jit.Baseline; the daemon default is All,
		// which cmd/sxelimd sets explicitly. Tests want the full pipeline.
		v, err := jit.ParseVariant("all")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Variant = v
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, ts.Client())
	c.BaseBackoff = 2 * time.Millisecond
	return s, c
}

// refOutput runs the untouched 32-bit program — the semantics every daemon
// answer must reproduce.
func refOutput(t *testing.T, src string) string {
	t.Helper()
	cu, err := minijava.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
	if err != nil {
		t.Fatal(err)
	}
	return res.Output
}

func TestCompileRunMatchesReference(t *testing.T) {
	_, c := newTestServer(t, Config{})
	for _, wl := range workloads.All() {
		resp, err := c.Compile(context.Background(), &CompileRequest{Source: wl.Source, Run: true})
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if resp.Trap != "" {
			t.Fatalf("%s: unexpected trap %q", wl.Name, resp.Trap)
		}
		if want := refOutput(t, wl.Source); resp.Output != want {
			t.Errorf("%s: daemon output %q, reference %q", wl.Name, resp.Output, want)
		}
		if resp.Degraded {
			t.Errorf("%s: degraded without any pressure", wl.Name)
		}
	}
}

// TestDegradedIdentityAllWorkloads is the degraded-path identity table test:
// with a deadline that expires before any function compiles, every response
// is the Convert64-only floor — marked degraded, and still printing exactly
// what the reference interpreter prints, on every workload. Degraded, never
// wrong.
func TestDegradedIdentityAllWorkloads(t *testing.T) {
	_, c := newTestServer(t, Config{
		// Every admitted request stalls well past its deadline before
		// compiling.
		FaultDelay: func() time.Duration { return 20 * time.Millisecond },
	})
	for _, wl := range workloads.All() {
		wl := wl
		t.Run(wl.Suite+"/"+wl.Name, func(t *testing.T) {
			resp, err := c.Compile(context.Background(), &CompileRequest{
				Source:     wl.Source,
				Run:        true,
				DeadlineMS: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Degraded || len(resp.DegradedFuncs) == 0 {
				t.Fatalf("deadline of 1ms under a 20ms stall did not degrade (funcs: %v)", resp.DegradedFuncs)
			}
			if resp.Eliminated != 0 {
				t.Errorf("floored compile claims %d eliminations", resp.Eliminated)
			}
			if resp.Trap != "" {
				t.Fatalf("degraded run trapped: %q", resp.Trap)
			}
			if want := refOutput(t, wl.Source); resp.Output != want {
				t.Errorf("degraded output %q != reference %q", resp.Output, want)
			}
		})
	}
}

func TestBadRequestsAreStructured(t *testing.T) {
	_, c := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  CompileRequest
	}{
		{"empty", CompileRequest{}},
		{"both inputs", CompileRequest{Source: "void main() {}", IR: "func main() i64 {\nb0:\n\tret.64 r0\n}"}},
		{"bad variant", CompileRequest{Source: "void main() {}", Variant: "warp-speed"}},
		{"bad machine", CompileRequest{Source: "void main() {}", Machine: "z80"}},
		{"parse error", CompileRequest{Source: "void main( {"}},
		{"bad ir", CompileRequest{IR: "func f( nonsense"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Compile(context.Background(), &tc.req)
			re, ok := err.(*RequestError)
			if !ok {
				t.Fatalf("err = %v, want *RequestError", err)
			}
			if re.Status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", re.Status)
			}
			if re.Msg == "" {
				t.Fatal("empty diagnostic")
			}
		})
	}
}

// TestBackpressure: with one worker slot and no queue, concurrent requests
// are answered 429 + Retry-After instead of piling up — and the client's
// retry loop absorbs the rejection, so every request eventually succeeds.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	var stalled sync.Once
	firstIn := make(chan struct{})
	s, c := newTestServer(t, Config{
		MaxInflight: 1,
		MaxQueue:    -1, // no queue: second request is rejected outright
		FaultDelay: func() time.Duration {
			stalled.Do(func() { close(firstIn) })
			<-release
			return 0
		},
	})

	src := "void main() { print(42); }"
	done := make(chan error, 1)
	go func() {
		_, err := c.Compile(context.Background(), &CompileRequest{Source: src})
		done <- err
	}()
	<-firstIn

	// Raw request while the slot is held: must be 429 with a parseable
	// Retry-After, not a hang.
	req := &CompileRequest{Source: src}
	raw := NewClient(c.base, c.hc)
	raw.MaxRetries = 0
	_, err := raw.Compile(context.Background(), req)
	if err == nil {
		t.Fatal("second request admitted past MaxInflight=1, MaxQueue=0")
	}
	if s.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}

	// A retrying client rides out the backpressure.
	retrier := NewClient(c.base, c.hc)
	retrier.MaxRetries = 50
	retrier.BaseBackoff = time.Millisecond
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	if _, err := retrier.Compile(context.Background(), req); err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("stalled request failed: %v", err)
	}
}

// TestDrain: draining answers new work 503, flips /healthz, and waits for
// inflight requests to finish.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s, c := newTestServer(t, Config{
		FaultDelay: func() time.Duration {
			once.Do(func() { close(entered) })
			<-release
			return 0
		},
	})

	var inflightErr atomic.Value
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		if _, err := c.Compile(context.Background(), &CompileRequest{Source: "void main() { print(7); }"}); err != nil {
			inflightErr.Store(err)
		}
	}()
	<-entered

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Draining state is visible immediately; the inflight request is not
	// yet done.
	deadline := time.Now().Add(2 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("draining flag never set")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Health(context.Background()); err == nil {
		t.Error("healthz still ok while draining")
	}
	nc := NewClient(c.base, c.hc)
	nc.MaxRetries = 0
	if _, err := nc.Compile(context.Background(), &CompileRequest{Source: "void main() {}"}); err == nil {
		t.Error("new request admitted while draining")
	}

	select {
	case <-finished:
		t.Fatal("inflight request finished before release — test is vacuous")
	default:
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-finished
	if err, _ := inflightErr.Load().(error); err != nil {
		t.Fatalf("inflight request failed across drain: %v", err)
	}
}

// TestStatszSnapshot: counters, cache traffic and latency quantiles all show
// up in one snapshot.
func TestStatszSnapshot(t *testing.T) {
	_, c := newTestServer(t, Config{CacheDir: t.TempDir()})
	src := "void main() { int i; i = 0; while (i < 10) { print(i); i = i + 1; } }"
	for i := 0; i < 3; i++ {
		if _, err := c.Compile(context.Background(), &CompileRequest{Source: src}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Served != 3 {
		t.Errorf("served = %d, want 3", st.Served)
	}
	if st.Cache.Hits == 0 {
		t.Errorf("repeat compiles produced no cache hits: %+v", st.Cache)
	}
	if st.Disk == nil || st.Disk.Stores == 0 {
		t.Errorf("disk spill recorded no stores: %+v", st.Disk)
	}
	if st.Latency.Count != 3 || st.Latency.P50NS <= 0 || st.Latency.P99NS < st.Latency.P50NS {
		t.Errorf("implausible latency stats: %+v", st.Latency)
	}
}

func TestHandlerMethodChecks(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/compile", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile = %d, want 405", rec.Code)
	}
}
