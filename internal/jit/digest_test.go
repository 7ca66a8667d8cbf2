package jit

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/progen"
	"signext/internal/workloads"
)

// compiledDigests pin the compiled IR of the benchmark's three corpora and of
// the forced-fallback run: the SHA-256 over every function's Format text plus
// the counts a compile reports (elimination statistics without timings,
// surviving static extensions and peephole rewrites). A pass that gets faster
// must leave these unchanged; a change that moves them changes what the
// compiler emits and must say so.
var compiledDigests = map[string]string{
	"paper-suite":     "e2a4966827496cafcb1653fd7170103f293bd40756dac46418d59fa617aa2bab",
	"compile-scale":   "7375703cff64f12f1764f7f338ec423c8df837070eff7bc93c56b5da2fdedd43",
	"daemon-hot":      "c22f2f3e5670289743bb9ca14ddc6732a043d1f5f9c2fce596057622754dc3ea",
	"forced-fallback": "35e392892c5802d8d3475f7b79d2f824ba7c653da543c709f5a0208887909d6d",
}

// telemetryDigests pin what a compile reports about itself: every telemetry
// record's non-timing fields (function, phase, counters, fallback bit) and
// every fallback's phase and function, over the same three corpora plus a
// run whose PhaseHook forces a fallback in the opts, signext and peep phases.
var telemetryDigests = map[string]string{
	"paper-suite":     "d707a60ae5087e6f596cfe12f9200d9f1384281990cb08f6e2216ab6b1343d81",
	"compile-scale":   "f9d87f339a1c37c8576811359ae96afbf28b7b9bb3c75c045fa130698dc04e3a",
	"daemon-hot":      "c00450ff7baa9b1498752a011d193ac97dbae595b8d75cc956fd2e20e7724bb3",
	"forced-fallback": "4020923914a698c1af8911e1d5acedb1a85755472490836268fb326557863563",
}

// digestCase is one program of a digest corpus and the options it is
// compiled under.
type digestCase struct {
	name, src string
	o         Options
	profile   bool // feed a Mode32 profiling run to order determination
}

// digestCorpora returns the pinned corpora: the 17 kernels (variant all,
// profiling run), the compile-scale corpus (progen seeds 1-7, 40-160
// statements, 8 helpers, peephole on), the daemon-mixed hot set (seeds
// 1000-1015, checked, sequential), and the forced-fallback run.
func digestCorpora() map[string][]digestCase {
	sets := map[string][]digestCase{}
	for _, w := range workloads.All() {
		sets["paper-suite"] = append(sets["paper-suite"], digestCase{w.Name, w.Source,
			Options{Variant: All, Machine: ir.IA64, GeneralOpts: true}, true})
	}
	for i, n := range []int{40, 60, 80, 100, 120, 140, 160} {
		sets["compile-scale"] = append(sets["compile-scale"], digestCase{fmt.Sprintf("progen-%d", i+1),
			progen.MiniJava(int64(i+1), progen.Config{Stmts: n, Funcs: 8}),
			Options{Variant: All, Machine: ir.IA64, GeneralOpts: true, Peep: true}, false})
	}
	for seed := int64(1000); seed < 1016; seed++ {
		sets["daemon-hot"] = append(sets["daemon-hot"], digestCase{fmt.Sprintf("progen-%d", seed),
			progen.MiniJava(seed, progen.Config{Stmts: 10, Funcs: 2}),
			Options{Variant: All, Machine: ir.IA64, GeneralOpts: true, Checked: true, Parallelism: 1}, false})
	}
	// One function fails in each optimizer phase; the hook depends only on
	// the phase and the function name, so it is safe on parallel workers.
	failIn := map[string]string{PhaseOpts: "main", PhaseSignExt: "h1", PhasePeep: "h2"}
	hook := func(phase string, fn *ir.Func) {
		if fn != nil && failIn[phase] == fn.Name {
			panic("forced " + phase + " failure")
		}
	}
	for i, n := range []int{40, 80} {
		sets["forced-fallback"] = append(sets["forced-fallback"], digestCase{fmt.Sprintf("progen-%d", i+1),
			progen.MiniJava(int64(i+1), progen.Config{Stmts: n, Funcs: 4}),
			Options{Variant: All, Machine: ir.IA64, GeneralOpts: true, Checked: true, Peep: true, PhaseHook: hook}, false})
	}
	return sets
}

// compileCase compiles one digest case.
func compileCase(t *testing.T, c digestCase) *Result {
	t.Helper()
	cu, err := minijava.Compile(c.src)
	if err != nil {
		t.Fatalf("%s: frontend: %v", c.name, err)
	}
	o := c.o
	if c.profile {
		if o.Profile, err = ProfileRun(cu.Prog, "main", 0); err != nil {
			t.Fatalf("%s: profiling run: %v", c.name, err)
		}
	}
	res, err := Compile(cu.Prog, o)
	if err != nil {
		t.Fatalf("%s: compile: %v", c.name, err)
	}
	return res
}

// digestIR folds the compiled IR and the counts of res into h.
func digestIR(h hash.Hash, name string, res *Result) {
	fmt.Fprintf(h, "== %s\n", name)
	for _, fn := range res.Prog.Funcs {
		fmt.Fprintln(h, fn.Format())
	}
	s := res.Stats
	fmt.Fprintf(h, "inserted=%d dummies=%d eliminated=%d remaining=%d exhausted=%v static=%d rewrites=%d\n",
		s.Inserted, s.Dummies, s.Eliminated, s.Remaining, s.BudgetExhausted, res.StaticExts, res.PeepRewrites)
}

// digestTelemetry folds the non-timing telemetry and the fallbacks of res
// into h.
func digestTelemetry(h hash.Hash, name string, res *Result) {
	fmt.Fprintf(h, "== %s\n", name)
	for _, r := range res.Telemetry {
		fmt.Fprintf(h, "%s %q elim=%d ins=%d dum=%d rw=%d fb=%v\n",
			r.Func, r.Phase, r.Eliminated, r.Inserted, r.Dummies, r.Rewrites, r.Fallback)
	}
	for _, fb := range res.Fallbacks {
		fmt.Fprintf(h, "fallback %s %q\n", fb.Func, fb.Phase)
	}
}

// checkDigests compiles every pinned corpus and compares the digest fold
// produces against pins.
func checkDigests(t *testing.T, pins map[string]string, fold func(hash.Hash, string, *Result)) {
	if testing.Short() {
		t.Skip("compiles the benchmark corpora")
	}
	for name, cases := range digestCorpora() {
		pin, ok := pins[name]
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			h := sha256.New()
			for _, c := range cases {
				fold(h, c.name, compileCase(t, c))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pin {
				t.Errorf("digest %s, pinned %s", got, pin)
			}
		})
	}
}

// TestCompiledDigest proves compiled output is byte-identical to the pinned
// compiler on the three benchmark corpora.
func TestCompiledDigest(t *testing.T) { checkDigests(t, compiledDigests, digestIR) }

// TestTelemetryDigest proves the telemetry and fallback records a compile
// reports are identical to the pinned compiler's, timings aside.
func TestTelemetryDigest(t *testing.T) { checkDigests(t, telemetryDigests, digestTelemetry) }

// TestForcedFallbackPhases guards the forced-fallback corpus itself: its hook
// must actually disable each of the three optimizer phases somewhere.
func TestForcedFallbackPhases(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range digestCorpora()["forced-fallback"] {
		for _, fb := range compileCase(t, c).Fallbacks {
			seen[fb.Phase] = true
		}
	}
	for _, p := range []string{PhaseOpts, PhaseSignExt, PhasePeep} {
		if !seen[p] {
			t.Errorf("no forced fallback in phase %q", p)
		}
	}
}
