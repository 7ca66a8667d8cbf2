package minijava

import (
	"testing"

	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/progen"
)

// generate delegates to the shared coverage-seeking generator in
// internal/progen, which stresses narrow widths far harder than the local
// generator it replaced: byte/short/char helper parameters and returns,
// short locals and loop counters, chained casts, narrow array index
// arithmetic and long/double checksum consumers.
func generate(seed int64) string {
	return progen.MiniJava(seed, progen.Config{})
}

func execLimited(res *jit.Result) (*interp.Result, error) {
	return interp.Run(res.Prog, "main", interp.Options{
		Mode:         interp.Mode64,
		Machine:      res.Options.Machine,
		MaxSteps:     60_000_000,
		CheckDummies: true,
	})
}

// FuzzMiniJava is the native fuzz entry (CI runs it as a short smoke job):
// whatever source the fuzzer mutates, the frontend must reject it cleanly or
// the guarded pipeline must compile it with zero fallbacks and reproduce the
// 32-bit reference behaviour. Panics anywhere surface as fuzz crashes.
func FuzzMiniJava(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(generate(seed))
	}
	f.Add("void main() { print(1); }")
	f.Add("static long g = -1; void main() { int x = (int) g; print(x); }")
	// Array indexing through a narrow value: the address computation needs
	// the index extension, so elimination must take the just_extended path
	// rather than deleting it.
	f.Add(`void main() {
	int[] a = new int[32];
	byte i = (byte) 200;
	a[i & 31] = 7;
	short s = (short) 70000;
	a[(s ^ 70000) & 31] = a[i & 31] + 1;
	print(a[8]); print(a[4]);
}`)
	// Chained same-register extensions: (short)(byte)x lowers to two
	// back-to-back ext instructions on one register; the second must not be
	// considered redundant with the first in either direction.
	f.Add(`void main() {
	int x = 70000;
	short s = (short)(byte) x;
	int y = (byte)(short) x;
	int z = (char)(byte) x;
	print(s); print(y); print(z);
}`)
	// Narrow loop counters: the increment is a 16-bit add whose result
	// feeds the back-edge compare, keeping a loop-carried truncation live
	// across iterations.
	f.Add(`void main() {
	int cs = 0;
	for (short s = 0; s < 300; s++) { cs = cs * 31 + s; }
	short t = 32760;
	for (; t < 32767; t++) { cs = cs + t; }
	print(cs); print(t);
}`)
	f.Fuzz(func(t *testing.T, src string) {
		cu, err := Compile(src)
		if err != nil {
			return // rejected cleanly: that is the contract for bad input
		}
		ref, refErr := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32, MaxSteps: 2_000_000})
		if refErr != nil {
			return // non-terminating or trapping programs prove nothing here
		}
		res, err := jit.Compile(cu.Prog, jit.Options{
			Variant: jit.All, Machine: ir.IA64, GeneralOpts: true, Checked: true,
		})
		if err != nil {
			t.Fatalf("guarded compile failed: %v\n%s", err, src)
		}
		for _, fb := range res.Fallbacks {
			t.Errorf("guarded pipeline fell back on valid input: %v\n%s", fb, src)
		}
		out, outErr := interp.Run(res.Prog, "main", interp.Options{
			Mode: interp.Mode64, Machine: ir.IA64, MaxSteps: 4_000_000, CheckDummies: true,
		})
		if outErr != nil {
			t.Fatalf("optimized run trapped, reference did not: %v\n%s", outErr, src)
		}
		if out.Output != ref.Output {
			t.Fatalf("output mismatch\nref %q\ngot %q\n%s", ref.Output, out.Output, src)
		}
	})
}

// TestFuzzVariantsAgree cross-checks hundreds of random programs: every
// variant on both machine models must reproduce the 32-bit reference
// behaviour (output and trap/no-trap) and never trip the interpreter's
// wild-address or dummy-assertion detectors.
func TestFuzzVariantsAgree(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	variants := []jit.Variant{
		jit.Baseline, jit.GenUse, jit.FirstAlgorithm, jit.BasicUDDU,
		jit.InsertOrder, jit.Array, jit.AllPDE, jit.All,
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		src := generate(seed)
		cu, err := Compile(src)
		if err != nil {
			t.Fatalf("seed %d: frontend rejected its own program: %v\n%s", seed, err, src)
		}
		ref, refErr := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32, MaxSteps: 30_000_000})
		if refErr != nil && ref.Steps >= 30_000_000 {
			t.Fatalf("seed %d: generated a non-terminating program\n%s", seed, src)
		}
		for _, mach := range []ir.Machine{ir.IA64, ir.PPC64} {
			for _, v := range variants {
				// Exercise the pipeline with and without the general
				// optimization layer (alternating to bound cost).
				gen := seed%2 == 0 || v == jit.All
				res, err := jit.Compile(cu.Prog, jit.Options{
					Variant: v, Machine: mach, GeneralOpts: gen, Checked: true,
				})
				if err != nil {
					t.Fatalf("seed %d %v/%v: compile: %v\n%s", seed, mach, v, err, src)
				}
				if len(res.Fallbacks) > 0 {
					t.Fatalf("seed %d %v/%v: phase fell back: %v\n%s", seed, mach, v, res.Fallbacks[0], src)
				}
				out, outErr := execLimited(res)
				if (outErr != nil) != (refErr != nil) {
					t.Fatalf("seed %d %v/%v: trap mismatch: ref=%v opt=%v\n%s",
						seed, mach, v, refErr, outErr, src)
				}
				if out.Output != ref.Output {
					t.Fatalf("seed %d %v/%v: output mismatch\nref %q\ngot %q\n%s",
						seed, mach, v, ref.Output, out.Output, src)
				}
			}
		}
	}
}
