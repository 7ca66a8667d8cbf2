package minijava

import (
	"testing"

	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
)

// compileAndRun lowers src and executes it under the 32-bit reference
// semantics, returning the output.
func compileAndRun(t *testing.T, src string) string {
	t.Helper()
	cu, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, res.Output)
	}
	return res.Output
}

func TestArithmetic(t *testing.T) {
	out := compileAndRun(t, `
		void main() {
			int a = 7; int b = 3;
			print(a + b); print(a - b); print(a * b); print(a / b); print(a % b);
			print(a & b); print(a | b); print(a ^ b);
			print(a << b); print(a >> 1); print(-a); print(~a);
			print(-7 >> 1); print(-7 >>> 28);
		}`)
	want := "10\n4\n21\n2\n1\n3\n7\n4\n56\n3\n-7\n-8\n-4\n15\n"
	if out != want {
		t.Fatalf("got %q want %q", out, want)
	}
}

func TestIntWrapAround(t *testing.T) {
	out := compileAndRun(t, `
		void main() {
			int x = 2147483647;
			x = x + 1;
			print(x);
			int y = -2147483647 - 1;
			print(y);
			print(y - 1);
			long l = 2147483647L + 1L;
			print(l);
		}`)
	want := "-2147483648\n-2147483648\n2147483647\n2147483648\n"
	if out != want {
		t.Fatalf("got %q want %q", out, want)
	}
}

func TestLongAndMixed(t *testing.T) {
	out := compileAndRun(t, `
		void main() {
			long l = 1L << 40;
			int i = 3;
			long m = l + i;
			print(m);
			print((int) m);
			long big = 123456789L * 1000L;
			print(big);
			print((int) big);
		}`)
	want := "1099511627779\n3\n123456789000\n-1097262584\n"
	if out != want {
		t.Fatalf("got %q want %q", out, want)
	}
}

func TestControlFlow(t *testing.T) {
	out := compileAndRun(t, `
		int collatz(int n) {
			int steps = 0;
			while (n != 1) {
				if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
				steps++;
			}
			return steps;
		}
		void main() {
			print(collatz(27));
			int s = 0;
			for (int i = 0; i < 10; i++) {
				if (i == 3) { continue; }
				if (i == 8) { break; }
				s += i;
			}
			print(s);
			int j = 0;
			do { j += 5; } while (j < 12);
			print(j);
			boolean b = j > 10 && j < 20;
			print(b ? 1 : 0);
			print(!b ? 1 : 0);
		}`)
	want := "111\n25\n15\n1\n0\n"
	if out != want {
		t.Fatalf("got %q want %q", out, want)
	}
}

func TestArraysAndNarrowTypes(t *testing.T) {
	out := compileAndRun(t, `
		void main() {
			byte[] b = new byte[4];
			b[0] = 200;          // stores 200, loads back as -56
			print(b[0]);
			short[] s = new short[2];
			s[0] = 40000;
			print(s[0]);
			char[] c = new char[2];
			c[0] = (char) 65535;
			print(c[0]);         // unsigned
			int[] a = new int[5];
			for (int i = 0; i < a.length; i++) { a[i] = i * i; }
			int t = 0;
			for (int i = a.length - 1; i >= 0; i--) { t += a[i]; }
			print(t);
			long[] l = new long[2];
			l[1] = 1L << 33;
			print(l[1]);
			double[] d = new double[2];
			d[0] = 2.5;
			print(d[0] * 4.0);
		}`)
	want := "-56\n-25536\n65535\n30\n8589934592\n10\n"
	if out != want {
		t.Fatalf("got %q want %q", out, want)
	}
}

func TestCastsAndDoubles(t *testing.T) {
	out := compileAndRun(t, `
		void main() {
			int i = 300;
			byte b = (byte) i;
			print(b);
			short sh = (short) 70000;
			print(sh);
			double d = i;
			print(d / 8.0);
			print((int) 3.99);
			print((int) -3.99);
			print((long) 1.5e10);
			print(sqrt(144.0));
			print(pow(2.0, 10.0));
		}`)
	want := "44\n4464\n37.5\n3\n-3\n15000000000\n12\n1024\n"
	if out != want {
		t.Fatalf("got %q want %q", out, want)
	}
}

func TestGlobalsAndRecursion(t *testing.T) {
	out := compileAndRun(t, `
		static int counter = 10;
		static long acc;
		int fib(int n) {
			if (n < 2) { return n; }
			return fib(n - 1) + fib(n - 2);
		}
		void main() {
			print(fib(15));
			counter = counter + 5;
			print(counter);
			acc = counter;
			acc *= 1000000L;
			print(acc);
		}`)
	want := "610\n15\n15000000\n"
	if out != want {
		t.Fatalf("got %q want %q", out, want)
	}
}

func TestExceptionOnNegativeIndex(t *testing.T) {
	cu, err := Compile(`
		void main() {
			int[] a = new int[3];
			int i = -1;
			print(a[i]);
		}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	_, err = interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
	if err == nil {
		t.Fatal("negative index must trap (the language fact Theorems 1-4 rely on)")
	}
}

// TestAllVariantsAgree compiles a mixed workload under every Table 1/2
// variant on both machine models and checks output equivalence against the
// 32-bit reference — the end-to-end soundness property of the system.
func TestAllVariantsAgree(t *testing.T) {
	src := `
		static int seed = 12345;
		int rnd() {
			seed = seed * 1103515245 + 12345;
			return (seed >> 4) & 262143;
		}
		int checksumDown(int[] a, int start) {
			int t = 0;
			int i = a.length;
			do {
				i = i - 1;
				int j = a[i];
				j = j & 0x0fffffff;
				t += j;
			} while (i > start);
			return t;
		}
		void main() {
			int[] a = new int[500];
			for (int i = 0; i < a.length; i++) { a[i] = rnd() - 100000; }
			print(checksumDown(a, 0));
			long l = 0;
			double d = 0.0;
			for (int i = 0; i < a.length; i++) {
				l += a[i];
				d = d + a[i];
			}
			print(l);
			print(d);
			byte[] bytes = new byte[64];
			for (int i = 0; i < 64; i++) { bytes[i] = (byte)(rnd()); }
			int bsum = 0;
			for (int i = 63; i >= 0; i--) { bsum += bytes[i]; }
			print(bsum);
		}`
	cu, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ref, err := interp.Run(cu.Prog, "main", interp.Options{Mode: interp.Mode32})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	var prevExt int64 = -1
	for _, mach := range []ir.Machine{ir.IA64, ir.PPC64} {
		for _, v := range jit.Variants {
			res, err := jit.Compile(cu.Prog, jit.Options{
				Variant: v, Machine: mach, GeneralOpts: true, Checked: true,
			})
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", mach, v, err)
			}
			if len(res.Fallbacks) > 0 {
				t.Fatalf("%s/%s: phase fell back: %v", mach, v, res.Fallbacks[0])
			}
			out, err := jit.Execute(res, "main")
			if err != nil {
				t.Fatalf("%s/%s: run: %v\noutput:\n%s", mach, v, err, out.Output)
			}
			if out.Output != ref.Output {
				t.Errorf("%s/%s: wrong output\nwant %q\ngot  %q", mach, v, ref.Output, out.Output)
			}
			if mach == ir.IA64 && v == jit.Baseline {
				prevExt = out.Ext32()
			}
			if mach == ir.IA64 && v == jit.All {
				if out.Ext32()*2 > prevExt {
					t.Errorf("new algorithm removed too few dynamic extensions: baseline=%d all=%d",
						prevExt, out.Ext32())
				}
			}
		}
	}
}
