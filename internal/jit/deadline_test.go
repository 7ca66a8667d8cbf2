package jit

import (
	"context"
	"testing"
	"time"

	"signext/internal/codecache"
	"signext/internal/interp"
)

// TestDeadlineExpiredDegradesNeverWrong: compiling under an already-expired
// context must still produce a complete, correct program — every function at
// the Convert64-only floor, all of them listed in Result.Degraded, and the
// executed output identical to the 32-bit reference.
func TestDeadlineExpiredDegradesNeverWrong(t *testing.T) {
	cu := compileSrc(t)
	ref, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the compile starts

	for _, par := range []int{1, 4} {
		res, err := Compile(cu.Prog, Options{
			Variant: All, GeneralOpts: true, Checked: true,
			Parallelism: par, Ctx: ctx,
		})
		if err != nil {
			t.Fatalf("parallelism %d: degraded compile must not fail: %v", par, err)
		}
		checkClean(t, par, res)
		if len(res.Degraded) != len(cu.Prog.Funcs) {
			t.Fatalf("parallelism %d: Degraded = %v, want all %d functions", par, res.Degraded, len(cu.Prog.Funcs))
		}
		if res.Stats.Eliminated != 0 || res.Stats.Inserted != 0 {
			t.Fatalf("parallelism %d: floor compile ran the elimination phase: %+v", par, res.Stats)
		}
		out, err := Execute(res, "main")
		if err != nil {
			t.Fatalf("parallelism %d: degraded program trapped: %v", par, err)
		}
		if out.Output != ref.Output {
			t.Fatalf("parallelism %d: degraded output diverges:\n got %q\nwant %q", par, out.Output, ref.Output)
		}
	}
}

// TestDeadlineFloorMatchesBaselineNoOpts: the floor code is exactly what a
// Baseline-variant, no-general-opts compile produces, function by function.
func TestDeadlineFloorMatchesBaselineNoOpts(t *testing.T) {
	cu := compileSrc(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	deg, err := Compile(cu.Prog, Options{Variant: All, GeneralOpts: true, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	floor, err := Compile(cu.Prog, Options{Variant: Baseline, GeneralOpts: false})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range floor.Prog.Funcs {
		if got := deg.Prog.Func(fn.Name).Format(); got != fn.Format() {
			t.Fatalf("%s: degraded code != Convert64-only floor:\n%s\n---\n%s", fn.Name, got, fn.Format())
		}
	}
}

// TestDeadlineFloorBypassesCache: floored functions must neither consume nor
// populate the shared cache — their outcome depends on when the deadline
// fired, not on content.
func TestDeadlineFloorBypassesCache(t *testing.T) {
	cu := compileSrc(t)
	cache := codecache.New(64 << 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Compile(cu.Prog, Options{Variant: All, GeneralOpts: true, Ctx: ctx, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatalf("floor compile stored %d cache entries", cache.Len())
	}
	cs := res.CacheStats
	if cs == nil || cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("floor compile touched the cache: %+v", cs)
	}

	// And a healthy compile afterwards populates and reuses it normally.
	cold, err := Compile(cu.Prog, Options{Variant: All, GeneralOpts: true, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheStats.Misses == 0 || cache.Len() == 0 {
		t.Fatal("healthy compile did not populate the cache")
	}
	warm, err := Compile(cu.Prog, Options{Variant: All, GeneralOpts: true, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheStats.Hits != len(cu.Prog.Funcs) {
		t.Fatalf("warm hits = %d, want %d", warm.CacheStats.Hits, len(cu.Prog.Funcs))
	}
	for _, fn := range cold.Prog.Funcs {
		if warm.Prog.Func(fn.Name).Format() != fn.Format() {
			t.Fatalf("%s: warm result not identical after a degraded compile shared the cache", fn.Name)
		}
	}
}

// TestNoDeadlineUnaffected: a nil Ctx and a generous live deadline both
// compile fully optimized with nothing degraded.
func TestNoDeadlineUnaffected(t *testing.T) {
	cu := compileSrc(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, o := range []Options{
		{Variant: All, GeneralOpts: true},
		{Variant: All, GeneralOpts: true, Ctx: context.Background()},
		{Variant: All, GeneralOpts: true, Ctx: ctx},
	} {
		res, err := Compile(cu.Prog, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Degraded) != 0 {
			t.Fatalf("healthy compile degraded: %v", res.Degraded)
		}
		if res.Stats.Eliminated == 0 {
			t.Fatal("elimination did not run")
		}
	}
}

// lateTimerCtx is a context whose deadline has passed while Err is still
// nil: the window before a timer-backed context's timer goroutine runs.
type lateTimerCtx struct {
	context.Context
	deadline time.Time
}

func (c lateTimerCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// TestDeadlinePassedBeforeErr: a deadline in the past floors the compile even
// while the context's Err is still nil, so a hostile deadline degrades
// deterministically however late the timer fires.
func TestDeadlinePassedBeforeErr(t *testing.T) {
	cu := compileSrc(t)
	ctx := lateTimerCtx{context.Background(), time.Now().Add(-time.Millisecond)}
	if ctx.Err() != nil {
		t.Fatal("test context must report a nil Err")
	}
	res, err := Compile(cu.Prog, Options{Variant: All, GeneralOpts: true, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != len(cu.Prog.Funcs) {
		t.Fatalf("Degraded = %v, want all %d functions", res.Degraded, len(cu.Prog.Funcs))
	}
}
