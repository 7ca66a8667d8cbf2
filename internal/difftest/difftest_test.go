package difftest

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"signext/internal/ir"
	"signext/internal/progen"
)

// TestCheckGeneratedPrograms is the engine's own smoke test: across a seed
// sweep of both generator kinds, the fully optimized pipeline must satisfy
// every differential and metamorphic property. A failure here is either a
// pipeline miscompile or an engine bug — both are release blockers.
func TestCheckGeneratedPrograms(t *testing.T) {
	for _, kind := range []string{"mj", "ir"} {
		for seed := int64(1); seed <= 10; seed++ {
			p, err := Generate(seed, kind, progen.Config{})
			if err != nil {
				t.Fatalf("Generate(%d, %q): %v", seed, kind, err)
			}
			cfg := Config{}
			if seed%3 != 0 {
				cfg.OracleOnly = true // full metamorphic set on every third seed
			} else {
				// Heavy seeds also check cache identity and profile identity
				// under the tiered runtime.
				cfg.Props = []string{"cache-identity", "profile-identity"}
			}
			fails, skipped := Check(p, cfg)
			if skipped {
				t.Logf("seed %d (%s): skipped (step limit)", seed, kind)
				continue
			}
			for _, f := range fails {
				t.Errorf("seed %d (%s): %v", seed, kind, f)
			}
		}
	}
}

// TestChaosFaultCaught verifies the engine can see: planting a DropExt fault
// in an optimized build must be caught by the oracle for at least one seed,
// and the failing program must shrink to a small reproducer that still
// exhibits the fault.
func TestChaosFaultCaught(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		p, err := Generate(seed, "ir", progen.Config{})
		if err != nil {
			t.Fatalf("Generate(%d): %v", seed, err)
		}
		planted, caught, _ := chaosCheck(p, seed, Config{})
		if !planted || !caught {
			continue
		}
		pred := func(cand *ir.Program) bool { return ChaosCaught(cand, ir.IA64, shrinkMaxSteps) }
		if !pred(p.Prog) {
			t.Fatalf("seed %d: chaos predicate does not hold on the original program", seed)
		}
		small := Shrink(p.Prog, pred)
		if !pred(small) {
			t.Fatalf("seed %d: shrunk program no longer exhibits the fault", seed)
		}
		before, after := NumInstrs(p.Prog), NumInstrs(small)
		if after > before {
			t.Fatalf("seed %d: shrinker grew the program: %d -> %d", seed, before, after)
		}
		t.Logf("seed %d: caught planted fault, shrunk %d -> %d instructions", seed, before, after)
		return
	}
	t.Fatal("no seed in 1..30 produced a caught chaos fault — the oracle is blind")
}

// TestProfileIdentityProperty pins the tiered metamorphic property on its
// own: across a seed sweep the tiered runtime must reproduce the reference
// bit-for-bit and its steady-state artifact must equal the one-shot profile
// compile, and the shrinker's predicate plumbing must route the property
// name to a tiered-enabled config.
func TestProfileIdentityProperty(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 6; seed++ {
		for _, kind := range []string{"mj", "ir"} {
			p, err := Generate(seed, kind, progen.Config{})
			if err != nil {
				t.Fatalf("Generate(%d, %q): %v", seed, kind, err)
			}
			fails, skipped := Check(p, Config{Props: []string{"profile-identity"}})
			if skipped {
				continue
			}
			checked++
			for _, f := range fails {
				t.Errorf("seed %d (%s): %v", seed, kind, f)
			}
		}
	}
	if checked == 0 {
		t.Fatal("every seed skipped — the property was never exercised")
	}

	// The shrink predicate for a profile-identity finding must not report a
	// healthy program as failing.
	p, err := Generate(1, "ir", progen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pred := propPredicate("profile-identity", ir.IA64, Config{})
	if pred(p.Prog) {
		t.Fatal("profile-identity predicate claims a healthy program fails")
	}
}

// TestShrinkReducesToCore minimizes against a cheap structural predicate and
// checks the result is both far smaller and still valid.
func TestShrinkReducesToCore(t *testing.T) {
	p, err := Generate(7, "ir", progen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pred := func(cand *ir.Program) bool {
		main := cand.Func("main")
		return main != nil && main.CountOp(ir.OpArrStore) >= 1
	}
	if !pred(p.Prog) {
		t.Skip("seed 7 generated no array store")
	}
	small := Shrink(p.Prog, pred)
	if !pred(small) {
		t.Fatal("shrunk program lost the property")
	}
	if !validCandidate(small) {
		t.Fatal("shrunk program is not a valid candidate")
	}
	before, after := NumInstrs(p.Prog), NumInstrs(small)
	if after >= before {
		t.Fatalf("shrinker made no progress: %d -> %d", before, after)
	}
	t.Logf("shrunk %d -> %d instructions", before, after)
}

// TestReproRoundTrip checks Marshal/ParseRepro is lossless for the metadata
// and the program text.
func TestReproRoundTrip(t *testing.T) {
	p, err := Generate(3, "ir", progen.Config{Stmts: 3, Funcs: 0})
	if err != nil {
		t.Fatal(err)
	}
	r := &Repro{
		Seed: 3, Kind: "ir", Prop: "chaos-dropext", Machine: ir.PPC64,
		Chaos: 42, Detail: "oracle: output mismatch\nsecond line", Prog: p.Prog,
	}
	data := r.Marshal()
	got, err := ParseRepro(data)
	if err != nil {
		t.Fatalf("ParseRepro: %v\n%s", err, data)
	}
	if got.Seed != 3 || got.Kind != "ir" || got.Prop != "chaos-dropext" ||
		got.Machine != ir.PPC64 || got.Chaos != 42 {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if formatProgram(got.Prog) != formatProgram(p.Prog) {
		t.Fatal("program text did not round-trip")
	}
}

// TestReproUnknownMachine: a reproducer naming a machine model that does not
// exist is rejected rather than replayed on ia64.
func TestReproUnknownMachine(t *testing.T) {
	p, err := Generate(3, "ir", progen.Config{Stmts: 3, Funcs: 0})
	if err != nil {
		t.Fatal(err)
	}
	data := (&Repro{Seed: 3, Kind: "ir", Prop: "oracle", Prog: p.Prog}).Marshal()
	data = bytes.Replace(data, []byte("; machine: ia64"), []byte("; machine: ppc"), 1)
	if _, err := ParseRepro(data); err == nil || !strings.Contains(err.Error(), "unknown machine") {
		t.Fatalf("ParseRepro accepted an unknown machine: %v", err)
	}
}

// TestCampaignSmoke runs a tiny campaign end to end and expects a clean
// verdict.
func TestCampaignSmoke(t *testing.T) {
	var log bytes.Buffer
	res, err := Campaign(CampaignConfig{Seed: 1, Count: 8, Workers: 2, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if res.Programs != 8 {
		t.Fatalf("ran %d programs, want 8", res.Programs)
	}
	if !res.OK {
		t.Fatalf("campaign not OK: %+v\n%s", res, log.String())
	}
}

// TestCampaignChaosMinimize runs a chaos campaign with minimization into a
// scratch directory and expects at least one caught fault and one
// reproducer file that parses back.
func TestCampaignChaosMinimize(t *testing.T) {
	dir := t.TempDir()
	res, err := Campaign(CampaignConfig{
		Seed: 1, Count: 10, Workers: 2, Chaos: true, Minimize: true,
		MaxRepros: 1, OutDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Caught < 1 {
		t.Fatalf("chaos campaign caught nothing: %+v", res)
	}
	if !res.OK {
		t.Fatalf("chaos campaign not OK: %+v", res)
	}
	if len(res.Repros) < 1 {
		t.Fatalf("no reproducers written: %+v", res)
	}
	data, err := os.ReadFile(res.Repros[0])
	if err != nil {
		t.Fatal(err)
	}
	r, err := ParseRepro(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Chaos == 0 {
		t.Fatal("chaos reproducer lost its injector seed")
	}
	if filepath.Dir(res.Repros[0]) != dir {
		t.Fatalf("reproducer written outside OutDir: %s", res.Repros[0])
	}
}

// TestPropertyRouting swaps a failing check into each table entry in turn:
// the shrink predicate for that property, the corpus replay of an entry
// naming it and the reproducer replay must all run the entry, whatever its
// gates — a property the router drops can never be minimized or replayed.
func TestPropertyRouting(t *testing.T) {
	p, err := Generate(1, "ir", progen.Config{Stmts: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range properties {
		prop := &properties[i]
		t.Run(prop.name, func(t *testing.T) {
			saved := prop.check
			defer func() { prop.check = saved }()
			prop.check = func(s *subject) { s.fail("planted") }

			if !propPredicate(prop.name, ir.IA64, Config{})(p.Prog) {
				t.Error("shrink predicate does not run the property")
			}

			dir := t.TempDir()
			if _, err := saveRepro(dir, &Repro{Seed: 1, Kind: "ir", Prop: prop.name, Prog: p.Prog}); err != nil {
				t.Fatal(err)
			}
			res := &CampaignResult{}
			if err := replayCorpus(CampaignConfig{Corpus: dir, Check: Config{OracleOnly: true}}, res); err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(res.FailureDetails, func(d string) bool { return strings.Contains(d, "["+prop.name+"/") }) {
				t.Errorf("corpus replay does not run the property: %v", res.FailureDetails)
			}

			fails, _ := Check(p, configFor(Config{Machines: []ir.Machine{ir.IA64}}, prop.name, ""))
			if !slices.ContainsFunc(fails, func(f Failure) bool { return f.Prop == prop.name }) {
				t.Error("reproducer replay does not run the property")
			}
		})
	}
}
