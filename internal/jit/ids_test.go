package jit

import (
	"fmt"
	"testing"

	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/opt"
	"signext/internal/progen"
)

// idsInRange checks the property dense per-instruction tables rely on:
// every instruction ID lies in [0, NumInstrIDs()), which ir.Verify enforces.
func idsInRange(t *testing.T, stage string, fn *ir.Func) {
	t.Helper()
	fn.ForEachInstr(func(b *ir.Block, ins *ir.Instr) {
		if ins.ID < 0 || ins.ID >= fn.NumInstrIDs() {
			t.Errorf("%s: %s/%s: %s has ID %d outside [0, %d)", stage, fn.Name, b, ins, ins.ID, fn.NumInstrIDs())
		}
	})
	if err := fn.Verify(); err != nil {
		t.Errorf("%s: %v", stage, err)
	}
}

// TestInstrIDsInRange: the parser, Clone, the inliner and the cache codec
// all produce functions whose instruction IDs are in range.
func TestInstrIDsInRange(t *testing.T) {
	cu, err := minijava.Compile(progen.MiniJava(3, progen.Config{Stmts: 40, Funcs: 4}))
	if err != nil {
		t.Fatal(err)
	}
	text := fmt.Sprintf("globals %d\n", cu.Prog.NGlobals)
	for _, fn := range cu.Prog.Funcs {
		text += fn.Format() + "\n"
	}
	parsed, err := ir.ParseProgram(text)
	if err != nil {
		t.Fatal(err)
	}
	inlined := parsed.Clone()
	if opt.InlineProgram(inlined) == 0 {
		t.Fatal("nothing inlined")
	}
	for k, fn := range parsed.Funcs {
		idsInRange(t, "parse", fn)
		idsInRange(t, "clone", fn.Clone())
		idsInRange(t, "inline", inlined.Funcs[k])

		data, ok := PayloadCodec().Encode(&cachePayload{fn: inlined.Funcs[k]})
		if !ok {
			t.Fatalf("%s: payload not encodable", fn.Name)
		}
		v, _, err := PayloadCodec().Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", fn.Name, err)
		}
		idsInRange(t, "codec", v.(*cachePayload).fn)
	}
}
