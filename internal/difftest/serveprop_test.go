package difftest

import (
	"testing"

	"signext/internal/minijava"
	"signext/internal/progen"
)

// TestServeIdentityOnGeneratedPrograms runs the serve-identity property over
// a batch of generated programs of both kinds: every daemon answer — healthy
// and forced-degraded — must agree with the direct compile and reference.
func TestServeIdentityOnGeneratedPrograms(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, kind := range []string{"mj", "ir"} {
			p, err := Generate(seed, kind, progen.Config{Stmts: 6})
			if err != nil {
				t.Fatal(err)
			}
			fails, skipped := Check(p, Config{Props: []string{"serve-identity"}})
			if skipped {
				continue
			}
			for _, f := range fails {
				t.Errorf("seed %d kind %s: %s", seed, kind, f.String())
			}
		}
	}
}

// TestServeIdentityCatchesTrapPrograms: a program whose reference run traps
// (here: the recursion depth bound) must flow through the serve property as
// expected-equal — the daemon reports the same trap, healthy and degraded.
func TestServeIdentityTrapEquality(t *testing.T) {
	src := `
int down(int n) {
	if (n <= 0) return 0;
	return down(n - 1) + 1;
}
void main() {
	print(down(30000));
}`
	cu, err := minijava.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p := &Program{Seed: 0, Kind: "mj", Source: src, Prog: cu.Prog}
	fails, skipped := Check(p, Config{Props: []string{"serve-identity"}})
	if skipped {
		t.Fatal("depth-trapping program skipped")
	}
	for _, f := range fails {
		t.Errorf("unexpected failure: %s", f.String())
	}
}
