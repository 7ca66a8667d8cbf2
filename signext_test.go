package signext_test

import (
	"strings"
	"testing"

	"signext"
)

const apiSrc = `
int sum(int[] a) {
	int t = 0;
	for (int i = 0; i < a.length; i++) { t += a[i]; }
	return t;
}
void main() {
	int[] a = new int[128];
	for (int i = 0; i < a.length; i++) { a[i] = i * 17 - 1000; }
	print(sum(a));
	double d = sum(a);
	print(d / 4.0);
}`

func TestFacadeEndToEnd(t *testing.T) {
	res, err := signext.CompileSource(apiSrc, signext.Options{
		Variant: signext.VariantAll, Machine: signext.IA64, WithProfile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := res.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	run, err := res.Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.Output != ref {
		t.Fatalf("optimized output diverged:\nref %q\ngot %q", ref, run.Output)
	}
	if res.Eliminated() == 0 {
		t.Fatal("nothing eliminated")
	}
	if run.Cycles == 0 || run.Steps == 0 {
		t.Fatal("no execution accounting")
	}
	if !strings.Contains(res.Format("sum"), "func sum") {
		t.Fatal("Format broken")
	}
	if !strings.Contains(res.Assembly("sum"), "cmp4") {
		t.Fatal("Assembly broken")
	}
}

func TestFacadeVariantSweep(t *testing.T) {
	var baseline int64 = -1
	for _, v := range signext.Variants {
		res, err := signext.CompileSource(apiSrc, signext.Options{Variant: v, Machine: signext.IA64})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		run, err := res.Run()
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if v == signext.VariantBaseline {
			baseline = run.DynamicExts
		}
		if v == signext.VariantAll && run.DynamicExts*4 > baseline {
			t.Fatalf("full algorithm left %d of %d dynamic extensions", run.DynamicExts, baseline)
		}
	}
}

func TestFacadeCompileError(t *testing.T) {
	_, err := signext.CompileSource("void main() { undeclared = 1; }", signext.Options{})
	if err == nil {
		t.Fatal("frontend error not surfaced")
	}
	if !strings.Contains(err.Error(), "undeclared") && !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestFacadeCheckedRun(t *testing.T) {
	res, err := signext.CompileSource(apiSrc, signext.Options{
		Variant: signext.VariantAll, Machine: signext.IA64, CheckedRun: true,
	})
	if err != nil {
		t.Fatalf("guarded compile + oracle rejected a sound program: %v", err)
	}
	if fbs := res.Fallbacks(); len(fbs) != 0 {
		t.Fatalf("spurious fallbacks: %v", fbs)
	}
	if err := res.Check(); err != nil {
		t.Fatalf("explicit re-check failed: %v", err)
	}
}

func TestFacadeBudgetFallback(t *testing.T) {
	res, err := signext.CompileSource(apiSrc, signext.Options{
		Variant: signext.VariantAll, Machine: signext.IA64, CheckedRun: true, ElimBudget: 1,
	})
	if err != nil {
		t.Fatalf("budget fallback must still compile and pass the oracle: %v", err)
	}
	fbs := res.Fallbacks()
	if len(fbs) == 0 {
		t.Fatal("budget exhaustion not reported")
	}
	for _, fb := range fbs {
		if fb.Phase != "signext" || fb.Func == "" || !strings.Contains(fb.Reason, "budget") {
			t.Fatalf("malformed fallback record: %+v", fb)
		}
	}
	ref, err := res.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	run, err := res.Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.Output != ref {
		t.Fatalf("fallback code diverged:\nref %q\ngot %q", ref, run.Output)
	}
}

func TestFacadeCompileCache(t *testing.T) {
	cache := signext.NewCache(64 << 20)
	opts := signext.Options{
		Variant: signext.VariantAll, Machine: signext.IA64,
		WithProfile: true, Cache: cache,
	}
	cold, err := signext.CompileSource(apiSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	cs := cold.CacheStats()
	if cs == nil || cs.Hits != 0 || cs.Misses == 0 {
		t.Fatalf("first compile should be all misses, got %+v", cs)
	}
	warm, err := signext.CompileSource(apiSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.CacheStats()
	if ws == nil || ws.Misses != 0 || ws.Hits != cs.Misses {
		t.Fatalf("second compile should be all hits, got %+v", ws)
	}
	if warm.Format("sum") != cold.Format("sum") || warm.StaticExts() != cold.StaticExts() {
		t.Fatal("warm compile differs from cold compile")
	}
	wr, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	cr, err := cold.Run()
	if err != nil {
		t.Fatal(err)
	}
	if wr.Output != cr.Output || wr.DynamicExts != cr.DynamicExts {
		t.Fatalf("warm execution diverged: %+v vs %+v", wr, cr)
	}
	uncached, err := signext.CompileSource(apiSrc, signext.Options{
		Variant: signext.VariantAll, Machine: signext.IA64, WithProfile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if uncached.CacheStats() != nil {
		t.Fatal("compile without a cache reported cache stats")
	}
}

func TestFacadeRunTiered(t *testing.T) {
	tr, err := signext.RunTieredSource(apiSrc, signext.TieredOptions{
		Options:      signext.Options{Variant: signext.VariantAll, Machine: signext.IA64},
		Invocations:  4,
		HotThreshold: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Outputs) != 4 {
		t.Fatalf("got %d outputs, want 4", len(tr.Outputs))
	}
	ref, err := tr.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range tr.Outputs {
		if out != ref {
			t.Fatalf("invocation %d output diverged:\nref %q\ngot %q", i+1, ref, out)
		}
	}
	if len(tr.Promotions) == 0 || tr.Telemetry.TierUps == 0 {
		t.Fatal("no promotions under a low threshold")
	}
	// The steady-state artifact behaves like a one-shot compile.
	run, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.Output != ref {
		t.Fatalf("steady-state output diverged:\nref %q\ngot %q", ref, run.Output)
	}
	if tr.Eliminated() == 0 {
		t.Fatal("steady-state compile eliminated nothing")
	}
	compiled := 0
	for _, s := range tr.States {
		if s.Tier.String() == "compiled" {
			compiled++
		}
	}
	if compiled != tr.Telemetry.TierUps {
		t.Fatalf("state/telemetry mismatch: %d compiled states, %d tier-ups", compiled, tr.Telemetry.TierUps)
	}
}

func TestFacadeProfileRoundTrip(t *testing.T) {
	tr, err := signext.RunTieredSource(apiSrc, signext.TieredOptions{
		Options:      signext.Options{Variant: signext.VariantAll, Machine: signext.IA64},
		HotThreshold: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := tr.Profile.Marshal()
	back, err := signext.ParseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	// Compiling with the decoded profile reproduces the steady-state code.
	res, err := signext.CompileSource(apiSrc, signext.Options{
		Variant: signext.VariantAll, Machine: signext.IA64, Profile: back,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range tr.IR().Funcs {
		if got, want := res.Format(fn.Name), tr.Format(fn.Name); got != want {
			t.Fatalf("round-tripped profile compiled %s differently:\n%s\n----\n%s", fn.Name, got, want)
		}
	}
	// A warm-started run promotes before its first invocation.
	warm, err := signext.RunTieredSource(apiSrc, signext.TieredOptions{
		Options:      signext.Options{Variant: signext.VariantAll, Machine: signext.IA64},
		Invocations:  1,
		HotThreshold: 50,
		Seed:         back,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range warm.Promotions {
		if p.Invocation == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("seeded profile did not warm-start any promotion")
	}
}

// TestFacadeTieredCompileOption: a profile gathered by the tiered runtime
// feeds a static compile through Options.Profile.
func TestFacadeTieredCompileOption(t *testing.T) {
	tr, err := signext.RunTieredSource(apiSrc, signext.TieredOptions{
		Options: signext.Options{Variant: signext.VariantAll, Machine: signext.IA64},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := signext.CompileSource(apiSrc, signext.Options{
		Variant: signext.VariantAll, Machine: signext.IA64, Profile: tr.Profile,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := res.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	run, err := res.Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.Output != ref {
		t.Fatalf("tiered-profile compile diverged:\nref %q\ngot %q", ref, run.Output)
	}
	if res.Eliminated() == 0 {
		t.Fatal("nothing eliminated")
	}
}
