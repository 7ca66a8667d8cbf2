package jit

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/workloads"
)

// fingerprint captures everything about a compile that must not depend on
// the worker count: the full IR print, the statistics, and the telemetry and
// fallback records (minus wall times, which legitimately vary).
func fingerprint(res *Result) string {
	var b strings.Builder
	for _, fn := range res.Prog.Funcs {
		b.WriteString(fn.Format())
	}
	fmt.Fprintf(&b, "stats=%+v static=%d\n", res.Stats, res.StaticExts)
	for _, r := range res.Telemetry {
		fmt.Fprintf(&b, "tel %s %s elim=%d ins=%d dum=%d fb=%v\n",
			r.Func, r.Phase, r.Eliminated, r.Inserted, r.Dummies, r.Fallback)
	}
	for _, fb := range res.Fallbacks {
		fmt.Fprintf(&b, "fb %s %s panic=%v err=%v\n", fb.Phase, fb.Func, fb.Panic != nil, fb.Err != nil)
	}
	return b.String()
}

// TestParallelMatchesSequential is the tentpole guarantee: compiling the
// benchmark workloads with a full worker pool produces bit-identical results
// to a sequential compile, for every variant.
func TestParallelMatchesSequential(t *testing.T) {
	par := runtime.GOMAXPROCS(0)
	if par < 2 {
		par = 4 // still exercises the pool path
	}
	for _, w := range workloads.All() {
		cu, err := minijava.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		profile, err := ProfileRun(cu.Prog, "main", 0)
		if err != nil {
			t.Fatalf("%s: profile: %v", w.Name, err)
		}
		for _, v := range Variants {
			o := Options{
				Variant: v, Machine: ir.IA64, GeneralOpts: true,
				Profile: profile, Checked: true,
			}
			o.Parallelism = 1
			seq, err := Compile(cu.Prog, o)
			if err != nil {
				t.Fatalf("%s/%v seq: %v", w.Name, v, err)
			}
			checkClean(t, w.Name, seq)
			o.Parallelism = par
			got, err := Compile(cu.Prog, o)
			if err != nil {
				t.Fatalf("%s/%v par: %v", w.Name, v, err)
			}
			if a, b := fingerprint(seq), fingerprint(got); a != b {
				t.Fatalf("%s/%v: parallel compile differs from sequential\n--- sequential ---\n%s\n--- parallel(%d) ---\n%s",
					w.Name, v, a, par, b)
			}
		}
	}
}

// TestParallelMatchesSequentialPPC64 repeats the determinism check on the
// second machine model for the full variant.
func TestParallelMatchesSequentialPPC64(t *testing.T) {
	for _, w := range workloads.JBYTEmark()[:3] {
		cu, err := minijava.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		o := Options{Variant: All, Machine: ir.PPC64, GeneralOpts: true, Checked: true}
		o.Parallelism = 1
		seq, err := Compile(cu.Prog, o)
		if err != nil {
			t.Fatal(err)
		}
		checkClean(t, w.Name, seq)
		o.Parallelism = 8
		got, err := Compile(cu.Prog, o)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(seq) != fingerprint(got) {
			t.Fatalf("%s: PPC64 parallel compile differs from sequential", w.Name)
		}
	}
}

// TestTimingPartition is the accounting regression test: SignExt, Chains and
// Others must be a disjoint partition — their sum equals the sum over all
// telemetry records, each record counted exactly once.
func TestTimingPartition(t *testing.T) {
	cu, err := minijava.Compile(workloads.JBYTEmark()[0].Source)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 4} {
		for _, v := range []Variant{Baseline, GenUse, FirstAlgorithm, All} {
			res, err := Compile(cu.Prog, Options{
				Variant: v, GeneralOpts: true, Checked: true, Parallelism: parallelism,
			})
			if err != nil {
				t.Fatalf("%v: %v", v, err)
			}
			checkClean(t, v, res)
			var total, chains, signext, others int64
			for _, r := range res.Telemetry {
				total += int64(r.Wall)
				switch r.Phase {
				case PhaseChains:
					chains += int64(r.Wall)
				case PhaseSignExt:
					signext += int64(r.Wall)
				default:
					others += int64(r.Wall)
				}
				if r.Wall < 0 {
					t.Fatalf("%v: negative wall time in record %+v", v, r)
				}
			}
			tm := res.Timing
			if int64(tm.Total()) != total {
				t.Fatalf("%v par=%d: Timing.Total()=%v but telemetry sums to %v",
					v, parallelism, tm.Total(), total)
			}
			if int64(tm.Chains) != chains || int64(tm.SignExt) != signext || int64(tm.Others) != others {
				t.Fatalf("%v par=%d: partition mismatch: timing=%+v, telemetry chains=%d signext=%d others=%d",
					v, parallelism, tm, chains, signext, others)
			}
			if tm.SignExt < 0 || tm.Chains < 0 || tm.Others < 0 {
				t.Fatalf("%v: negative bucket: %+v", v, tm)
			}
			if tm.Wall <= 0 {
				t.Fatalf("%v: missing wall-clock stamp: %+v", v, tm)
			}
			if v == All && chains == 0 {
				t.Fatalf("expected a chains record for the full variant")
			}
		}
	}
}

// TestTelemetrySortedAndComplete pins the record layout the benchtab JSON
// export relies on: sorted by function name (program-scope records first),
// one conversion and one signext record per function.
func TestTelemetrySortedAndComplete(t *testing.T) {
	cu := compileSrc(t)
	res, err := Compile(cu.Prog, Options{Variant: All, GeneralOpts: true, Checked: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, All, res)
	for i := 1; i < len(res.Telemetry); i++ {
		if res.Telemetry[i-1].Func > res.Telemetry[i].Func {
			t.Fatalf("telemetry not sorted by function: %q before %q",
				res.Telemetry[i-1].Func, res.Telemetry[i].Func)
		}
	}
	perFunc := map[string]map[string]int{}
	for _, r := range res.Telemetry {
		if perFunc[r.Func] == nil {
			perFunc[r.Func] = map[string]int{}
		}
		perFunc[r.Func][r.Phase]++
	}
	if perFunc[ProgramScope][PhaseInlining] != 1 {
		t.Fatalf("missing program-scope inlining record: %+v", perFunc)
	}
	for _, fn := range res.Prog.Funcs {
		got := perFunc[fn.Name]
		if got[PhaseConvert] != 1 || got[PhaseOpts] != 1 || got[PhaseSignExt] != 1 {
			t.Fatalf("%s: incomplete phase records: %+v", fn.Name, got)
		}
	}
}

// TestParallelFallbackDeterministic forces a signext panic in one function
// and checks the fallback handling — snapshot restore, record contents, the
// rest of the program still optimized — is identical at every worker count.
func TestParallelFallbackDeterministic(t *testing.T) {
	cu := compileSrc(t) // two functions: rnd and main
	compile := func(par int) *Result {
		res, err := Compile(cu.Prog, Options{
			Variant: All, GeneralOpts: true, Checked: true, Parallelism: par,
			PhaseHook: func(phase string, fn *ir.Func) {
				if phase == PhaseSignExt && fn != nil && fn.Name == "rnd" {
					panic("forced signext failure")
				}
			},
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return res
	}
	seq := compile(1)
	if len(seq.Fallbacks) != 1 || seq.Fallbacks[0].Func != "rnd" || seq.Fallbacks[0].Phase != PhaseSignExt {
		t.Fatalf("expected exactly one rnd/signext fallback, got %+v", seq.Fallbacks)
	}
	par := compile(8)
	if fingerprint(seq) != fingerprint(par) {
		t.Fatalf("fallback compile differs between worker counts\n--- seq ---\n%s\n--- par ---\n%s",
			fingerprint(seq), fingerprint(par))
	}
	// The fallback phase's record must be flagged.
	var flagged bool
	for _, r := range par.Telemetry {
		if r.Func == "rnd" && r.Phase == PhaseSignExt && r.Fallback {
			flagged = true
		}
	}
	if !flagged {
		t.Fatal("fallback not flagged in telemetry")
	}
}
