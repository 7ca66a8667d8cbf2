package difftest

import (
	"os"
	"path/filepath"
	"testing"

	"signext/internal/peep"
)

// TestPeepCorpus replays every directed corpus entry the rule-table
// generator committed under testdata/peep/: each must parse as a
// reproducer, name the peep-identity property and a live table rule, and
// pass the focused peep-identity check on both machines. This is the
// regression harness the generated corpus exists for — a rule whose
// rewrite ever diverges from the reference build fails here first.
func TestPeepCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "peep", "*.ir"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(peep.Rules) {
		t.Fatalf("corpus has %d entries for %d rules; regenerate with: go test ./internal/peep -run TestEveryRuleHasGeneratedTest -update",
			len(paths), len(peep.Rules))
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ParseRepro(data)
			if err != nil {
				t.Fatal(err)
			}
			if r.Prop != "peep-identity" {
				t.Fatalf("corpus entry carries prop %q, want peep-identity", r.Prop)
			}
			if peep.FindRule(r.Rule) == nil {
				t.Fatalf("corpus entry targets unknown rule %q", r.Rule)
			}
			fails, skipped := Check(&Program{Kind: r.Kind, Seed: r.Seed, Prog: r.Prog},
				configFor(Config{OracleOnly: true}, r.Prop, r.Rule))
			if skipped {
				t.Fatal("corpus entry was skipped; directed entries must always run")
			}
			for _, f := range fails {
				t.Errorf("replay failure: %s", f)
			}
		})
	}
}

// TestCampaignCorpusSeeding drives the campaign-level replay path sxfuzz's
// -corpus flag uses: the directed entries run before any generated
// program, count toward the program total, and a clean corpus keeps the
// campaign green.
func TestCampaignCorpusSeeding(t *testing.T) {
	res, err := Campaign(CampaignConfig{
		Seed: 1, Count: 2, Workers: 2,
		Corpus: filepath.Join("testdata", "peep"),
		Check:  Config{OracleOnly: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("campaign with directed corpus failed: %+v", res)
	}
	if want := len(peep.Rules) + 2; res.Programs != want {
		t.Fatalf("corpus entries must count as programs: got %d, want %d", res.Programs, want)
	}
}
