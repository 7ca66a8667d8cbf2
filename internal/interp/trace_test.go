package interp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"signext/internal/ir"
)

// traceProg: a short two-function program whose instruction stream is stable
// enough to pin in a golden file — a loop with narrow arithmetic, a call, and
// a print.
func traceProg() *ir.Program {
	prog := ir.NewProgram()

	f := ir.NewFunc("twice", ir.Param{W: ir.W32})
	x := f.Param(0)
	r := f.Add(ir.W32, x, x)
	f.Ext(ir.W32, r)
	f.Ret(r)
	prog.AddFunc(f.Fn)

	b := ir.NewFunc("main")
	i := b.Fn.NewReg()
	b.ConstTo(ir.W32, i, 0)
	lim := b.Const(ir.W32, 3)
	one := b.Const(ir.W32, 1)
	loop, body, exit := b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Jmp(loop)
	b.SetBlock(loop)
	b.Br(ir.W32, ir.CondLT, i, lim, body, exit)
	b.SetBlock(body)
	d := b.Call("twice", ir.W32, false, i)
	b.Print(ir.W32, d)
	b.OpTo(ir.OpAdd, ir.W32, i, i, one)
	b.Ext(ir.W32, i)
	b.Jmp(loop)
	b.SetBlock(exit)
	b.Ret(ir.NoReg)
	prog.AddFunc(b.Fn)
	return prog
}

func collectTrace(t *testing.T, opt Options) []string {
	t.Helper()
	var lines []string
	opt.Trace = func(fn string, blk *ir.Block, ins *ir.Instr) {
		lines = append(lines, fmt.Sprintf("%s\t%s\t%s", fn, blk, ins))
	}
	if _, err := Run(traceProg(), "main", opt); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestTraceGolden pins the full trace of traceProg against a checked-in
// golden file, so trace format or interleaving drift is caught. Run with
// -update to regenerate.
func TestTraceGolden(t *testing.T) {
	lines := collectTrace(t, Options{Mode: Mode32})
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "trace_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("trace drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestTraceLimitResolvedOnce: the limit is resolved once at machine
// construction, and truncation is exact — exactly min(limit, steps) lines,
// regardless of the requested dispatcher (Trace forces the walker, so the
// trace is identical under both settings).
func TestTraceLimitResolvedOnce(t *testing.T) {
	full := collectTrace(t, Options{Mode: Mode32})
	if len(full) < 10 {
		t.Fatalf("traceProg too short to exercise truncation: %d lines", len(full))
	}
	for _, d := range []Dispatch{DispatchSwitch, DispatchAuto} {
		for _, lim := range []int64{1, 5, int64(len(full)) - 1, int64(len(full)), int64(len(full)) + 7} {
			lines := collectTrace(t, Options{Mode: Mode32, TraceLimit: lim, Dispatch: d})
			want := int(lim)
			if want > len(full) {
				want = len(full)
			}
			if len(lines) != want {
				t.Errorf("dispatch=%d limit=%d: got %d trace lines, want %d", d, lim, len(lines), want)
			}
			for i, l := range lines {
				if l != full[i] {
					t.Errorf("dispatch=%d limit=%d: line %d diverged: %q vs %q", d, lim, i, l, full[i])
					break
				}
			}
		}
	}
}
