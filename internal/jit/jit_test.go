package jit

import (
	"testing"

	"signext/internal/interp"
	"signext/internal/minijava"
)

const src = `
static int seed = 77;
int rnd() { seed = seed * 1103515245 + 12345; return (seed >>> 8) & 0xffff; }
void main() {
	int[] a = new int[256];
	for (int i = 0; i < a.length; i++) { a[i] = rnd() - 30000; }
	long sum = 0;
	for (int i = a.length - 1; i >= 0; i--) { sum += a[i]; }
	print(sum);
	double d = sum;
	print(d * 0.5);
}`

func compileSrc(t *testing.T) *minijava.CompileUnit {
	t.Helper()
	cu, err := minijava.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return cu
}

// checkClean fails the test if a Checked compile fell back anywhere: on
// healthy input every phase must pass the deep verifier.
func checkClean(t *testing.T, what any, res *Result) {
	t.Helper()
	if len(res.Fallbacks) > 0 {
		t.Fatalf("%v: phase fell back: %v", what, res.Fallbacks[0])
	}
}

// TestSourceNeverMutated: Compile must clone; the input program stays in its
// 32-bit form across all variants.
func TestSourceNeverMutated(t *testing.T) {
	cu := compileSrc(t)
	before := cu.Prog.Func("main").Format()
	for _, v := range Variants {
		res, err := Compile(cu.Prog, Options{Variant: v, GeneralOpts: true, Checked: true})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		checkClean(t, v, res)
	}
	if got := cu.Prog.Func("main").Format(); got != before {
		t.Fatal("Compile mutated the source program")
	}
}

func TestVariantMonotonicity(t *testing.T) {
	cu := compileSrc(t)
	ref, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Variant]int64{}
	for _, v := range Variants {
		res, err := Compile(cu.Prog, Options{Variant: v, GeneralOpts: true, Checked: true})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		checkClean(t, v, res)
		out, err := Execute(res, "main")
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if out.Output != ref.Output {
			t.Fatalf("%v: wrong output", v)
		}
		counts[v] = out.Ext32()
	}
	if counts[All] > counts[BasicUDDU] || counts[BasicUDDU] > counts[Baseline] {
		t.Fatalf("monotonicity violated: %v", counts)
	}
	if counts[Array] > counts[BasicUDDU] {
		t.Fatalf("array elimination made things worse: %v", counts)
	}
}

func TestTimingAccounted(t *testing.T) {
	cu := compileSrc(t)
	res, err := Compile(cu.Prog, Options{Variant: All, GeneralOpts: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Total() <= 0 {
		t.Fatal("no compilation time recorded")
	}
	if res.Timing.Chains < 0 || res.Timing.SignExt < 0 {
		t.Fatalf("negative phase time: %+v", res.Timing)
	}
}

func TestProfileRunFeedsOrdering(t *testing.T) {
	cu := compileSrc(t)
	prof, err := ProfileRun(cu.Prog, "main", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) == 0 {
		t.Fatal("no profile collected")
	}
	res, err := Compile(cu.Prog, Options{Variant: All, GeneralOpts: true, Profile: prof, Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, All, res)
	out, err := Execute(res, "main")
	if err != nil {
		t.Fatal(err)
	}
	if out.Steps == 0 {
		t.Fatal("nothing executed")
	}
}

func TestVariantStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, v := range Variants {
		s := v.String()
		if s == "" || seen[s] {
			t.Fatalf("bad variant name %q", s)
		}
		seen[s] = true
	}
	if Baseline.String() != "baseline" || All.String() != "new algorithm (all)" {
		t.Fatal("table row names drifted")
	}
}
