package tiered

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"signext/internal/codecache"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/profile"
)

// testProg: main calls f(40) and prints its result; f runs a branchy loop
// with a narrow accumulator, so it gathers branch counts fast and exercises
// the extension machinery once promoted.
func testProg() *ir.Program {
	prog := ir.NewProgram()

	f := ir.NewFunc("f", ir.Param{W: ir.W32})
	n := f.Param(0)
	s := f.Fn.NewReg()
	i := f.Fn.NewReg()
	f.ConstTo(ir.W32, s, 0x7ffffff0) // near MaxInt32: the loop wraps W32
	f.ConstTo(ir.W32, i, 0)
	head := f.NewBlock()
	body := f.NewBlock()
	even := f.NewBlock()
	odd := f.NewBlock()
	latch := f.NewBlock()
	exit := f.NewBlock()
	f.Jmp(head)
	f.SetBlock(head)
	f.Br(ir.W32, ir.CondLT, i, n, body, exit)
	f.SetBlock(body)
	one := f.Const(ir.W32, 1)
	m := f.And(ir.W32, i, one)
	zero := f.Const(ir.W32, 0)
	f.Br(ir.W32, ir.CondEQ, m, zero, even, odd)
	f.SetBlock(even)
	f.OpTo(ir.OpAdd, ir.W32, s, s, i)
	f.Jmp(latch)
	f.SetBlock(odd)
	t := f.Mul(ir.W32, i, i)
	f.OpTo(ir.OpAdd, ir.W32, s, s, t)
	f.Jmp(latch)
	f.SetBlock(latch)
	f.OpTo(ir.OpAdd, ir.W32, i, i, one)
	f.Ext(ir.W32, i)
	f.Jmp(head)
	f.SetBlock(exit)
	f.Print(ir.W32, s)
	f.Ret(s)
	f.Fn.RetW = ir.W32
	prog.AddFunc(f.Fn)

	mb := ir.NewFunc("main")
	arg := mb.Const(ir.W32, 40)
	v := mb.Call("f", ir.W32, false, arg)
	mb.Print(ir.W32, v)
	mb.Ret(ir.NoReg)
	prog.AddFunc(mb.Fn)
	return prog
}

func testOpts() jit.Options {
	return jit.Options{Variant: jit.All, Machine: ir.IA64, GeneralOpts: true}
}

func formatProg(p *ir.Program) string {
	var sb strings.Builder
	for _, fn := range p.Funcs {
		sb.WriteString(fn.Format())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestPromotionAndOutputIdentity is the package-level contract: outputs stay
// bit-identical across the cold, mixed and steady tiers, the hot function
// tiers up, and the Finalize artifact equals a one-shot compile fed the
// gathered profile.
func TestPromotionAndOutputIdentity(t *testing.T) {
	prog := testProg()
	m, err := New(prog, Config{Options: testOpts(), HotThreshold: 150})
	if err != nil {
		t.Fatal(err)
	}

	var outputs []string
	for i := 0; i < 4; i++ {
		res, err := m.Invoke()
		if err != nil {
			t.Fatalf("invocation %d: %v", i+1, err)
		}
		outputs = append(outputs, res.Output)
	}
	for i, out := range outputs {
		if out != outputs[0] {
			t.Fatalf("invocation %d output diverged:\n%q\n%q", i+1, out, outputs[0])
		}
	}

	proms := m.Promotions()
	if len(proms) == 0 {
		t.Fatal("hot loop function was never promoted")
	}
	if m.Tier("f") != TierCompiled {
		t.Fatalf("f still in tier %v after %d invocations", m.Tier("f"), len(outputs))
	}
	for _, p := range proms {
		if p.Weight < 150 {
			t.Errorf("promotion of %s below threshold: weight %d", p.Func, p.Weight)
		}
		if p.Invocation < 1 {
			t.Errorf("unseeded promotion of %s at invocation %d", p.Func, p.Invocation)
		}
	}

	// One-shot compile with the gathered profile: same output...
	final, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	oneOpts := testOpts()
	oneOpts.Profile = m.Profile()
	oneshot, err := jit.Compile(prog, oneOpts)
	if err != nil {
		t.Fatal(err)
	}
	run, err := jit.Execute(oneshot, "main")
	if err != nil {
		t.Fatal(err)
	}
	if run.Output != outputs[0] {
		t.Fatalf("one-shot output diverged from tiered:\n%q\n%q", run.Output, outputs[0])
	}
	// ...and a bit-identical program to Finalize.
	if formatProg(final.Prog) != formatProg(oneshot.Prog) {
		t.Fatal("Finalize program differs from one-shot compile with the gathered profile")
	}
}

// TestFrozenProfileInvariant: the compiled body a function received at
// promotion time must be bit-identical to the one a later compile with the
// final (larger) profile produces — promoted functions' counts freeze, and
// the compiler only reads a function's own branch counts.
func TestFrozenProfileInvariant(t *testing.T) {
	prog := testProg()
	m, err := New(prog, Config{Options: testOpts(), HotThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := m.Invoke(); err != nil {
			t.Fatal(err)
		}
	}
	final, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Promotions() {
		got := m.mixed.Func(p.Func).Format()
		want := final.Prog.Func(p.Func).Format()
		if got != want {
			t.Errorf("promoted body of %s (invocation %d) differs from the final compile:\n%s\n----\n%s",
				p.Func, p.Invocation, got, want)
		}
	}
}

// TestSeedWarmStart: a profile persisted by a previous process promotes hot
// functions before the first invocation runs.
func TestSeedWarmStart(t *testing.T) {
	prog := testProg()
	warm, err := New(prog, Config{Options: testOpts(), HotThreshold: 150})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := warm.Invoke(); err != nil {
			t.Fatal(err)
		}
	}
	seed := warm.Profile()

	m, err := New(prog, Config{Options: testOpts(), HotThreshold: 150, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	proms := m.Promotions()
	if len(proms) == 0 || m.Tier("f") != TierCompiled {
		t.Fatal("seeded manager did not promote before the first invocation")
	}
	for _, p := range proms {
		if p.Invocation != 0 {
			t.Errorf("seeded promotion of %s stamped invocation %d, want 0", p.Func, p.Invocation)
		}
	}
	res, err := m.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := interp.Run(prog, "main", interp.Options{Mode: interp.Mode32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != ref.Output {
		t.Fatalf("warm-started output diverged from reference:\n%q\n%q", res.Output, ref.Output)
	}
}

// TestNeverPromote: a negative threshold keeps everything in the
// interpreter tier, and the pure-interpreter output matches the reference
// semantics.
func TestNeverPromote(t *testing.T) {
	prog := testProg()
	m, err := New(prog, Config{Options: testOpts(), HotThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Promotions()) != 0 {
		t.Fatal("negative threshold still promoted")
	}
	ref, err := interp.Run(prog, "main", interp.Options{Mode: interp.Mode32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != ref.Output {
		t.Fatalf("interpreter-tier output diverged from reference:\n%q\n%q", res.Output, ref.Output)
	}
}

// TestTelemetryAndStates: invocations and tier-ups are counted, both wall
// clocks are measured, and States reports each function's promotion point.
func TestTelemetryAndStates(t *testing.T) {
	prog := testProg()
	m, err := New(prog, Config{Options: testOpts(), HotThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if _, err := m.Invoke(); err != nil {
			t.Fatal(err)
		}
	}
	tel := m.Telemetry()
	if tel.Invocations != rounds || tel.InvokeWall <= 0 {
		t.Fatalf("invocation accounting: %+v", tel)
	}
	if tel.TierUps == 0 || tel.TierUpWall <= 0 {
		t.Fatalf("tier-up telemetry missing: %+v", tel)
	}
	states := m.States()
	if len(states) != 2 {
		t.Fatalf("States() = %v", states)
	}
	for _, s := range states {
		if s.Tier == TierCompiled && s.PromotedAt < 1 {
			t.Errorf("compiled %s has PromotedAt %d", s.Name, s.PromotedAt)
		}
		if s.Tier == TierInterp && s.PromotedAt != -1 {
			t.Errorf("interp %s has PromotedAt %d", s.Name, s.PromotedAt)
		}
	}
}

// TestProfileMergesInterpTierOnly: the gathered profile starts from a copy
// of the seed, keeps adding interpreter-tier counts, and stops adding a
// function's counts once it runs its compiled body.
func TestProfileMergesInterpTierOnly(t *testing.T) {
	prog := testProg()
	seed := profile.Profile{"main": {Calls: 5, Branches: map[int]profile.Counts{}}}
	m, err := New(prog, Config{Options: testOpts(), HotThreshold: 150, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for m.Tier("f") != TierCompiled {
		if m.Telemetry().Invocations == 10 {
			t.Fatal("f never promoted")
		}
		if _, err := m.Invoke(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Tier("main") != TierInterp {
		t.Fatal("main promoted; the test needs it in the interpreter tier")
	}
	frozen := m.Profile()["f"]
	inv := m.Telemetry().Invocations
	for i := 0; i < 2; i++ {
		if _, err := m.Invoke(); err != nil {
			t.Fatal(err)
		}
	}
	p := m.Profile()
	if !reflect.DeepEqual(p["f"], frozen) {
		t.Fatalf("promoted f's profile moved: %+v, frozen at %+v", p["f"], frozen)
	}
	if got, want := p["main"].Calls, int64(5+inv+2); got != want {
		t.Fatalf("main calls = %d, want seed 5 + %d invocations", got, inv+2)
	}
	if seed["main"].Calls != 5 {
		t.Fatalf("manager wrote through to its seed: %+v", seed["main"])
	}
}

// TestInvokeProfilesInterpTierOnly: once a function runs its compiled body,
// the interpreter does not profile its frames, so an invocation's profile has
// no entry for it while the interpreter-tier caller keeps its own.
func TestInvokeProfilesInterpTierOnly(t *testing.T) {
	m, err := New(testProg(), Config{Options: testOpts(), HotThreshold: 150})
	if err != nil {
		t.Fatal(err)
	}
	for m.Tier("f") != TierCompiled {
		if m.Telemetry().Invocations == 10 {
			t.Fatal("f never promoted")
		}
		if _, err := m.Invoke(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Profile["f"]; ok {
		t.Fatalf("compiled f was profiled: %+v", res.Profile["f"])
	}
	if _, ok := res.Profile["main"]; !ok {
		t.Fatal("interpreter-tier main has no profile entry")
	}
}

// TestSeedCountsSaturate: counts merged onto a seed near MaxInt64 saturate
// at MaxInt64 instead of wrapping negative, so the gathered profile still
// round-trips through its own wire format.
func TestSeedCountsSaturate(t *testing.T) {
	prog := testProg()
	probe, err := New(prog, Config{Options: testOpts(), HotThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Invoke(); err != nil {
		t.Fatal(err)
	}
	seed := probe.Profile()
	for _, fp := range seed {
		fp.Calls = math.MaxInt64 - 1
		for id := range fp.Branches {
			fp.Branches[id] = profile.Counts{Taken: math.MaxInt64 - 1, Fall: math.MaxInt64 - 1}
		}
	}
	m, err := New(prog, Config{Options: testOpts(), HotThreshold: -1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Invoke(); err != nil {
		t.Fatal(err)
	}
	p := m.Profile()
	for _, name := range []string{"main", "f"} {
		if got := p[name].Calls; got != math.MaxInt64 {
			t.Errorf("%s calls = %d, want MaxInt64", name, got)
		}
		if got := p.Weight(name); got != math.MaxInt64 {
			t.Errorf("%s weight = %d, want MaxInt64", name, got)
		}
	}
	if len(p["f"].Branches) == 0 {
		t.Fatal("f gathered no branch counts")
	}
	for id, c := range p["f"].Branches {
		if c.Taken != math.MaxInt64 {
			t.Errorf("f branch %d taken = %d, want MaxInt64", id, c.Taken)
		}
	}
	back, err := profile.Unmarshal(p.Marshal())
	if err != nil {
		t.Fatalf("saturated profile does not round-trip: %v", err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Fatalf("round trip changed the profile:\n%+v\n%+v", back, p)
	}
}

// TestCacheWarmPromotions: with a shared code cache, later promotion rounds
// and Finalize re-serve the frozen-profile functions as warm hits.
func TestCacheWarmPromotions(t *testing.T) {
	prog := testProg()
	opts := testOpts()
	opts.Cache = codecache.New(1 << 20)
	m, err := New(prog, Config{Options: opts, HotThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := m.Invoke(); err != nil {
			t.Fatal(err)
		}
	}
	final, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if final.CacheStats == nil || final.CacheStats.Hits == 0 {
		t.Fatalf("Finalize did not reuse frozen-profile compilations: %+v", final.CacheStats)
	}
}
