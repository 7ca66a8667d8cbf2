package interp

import (
	"fmt"
	"math"
	"strings"

	"signext/internal/ir"
)

// Dispatches is the exact dispatch profile of one run under threaded
// dispatch. Tok counts dispatches per fast-array instruction kind, keyed by
// the ops it covers joined with "+": a plain token reads "add", a
// superinstruction "add+jmp", a segment head "seg".
type Dispatches struct {
	Tok     map[string]int64
	Fused   int64 // dispatches of the fast array: segment heads plus instruction heads
	Unfused int64 // the same run with no superinstructions: segment heads plus steps
}

// DispatchCounts runs prog on the walker with Trace and maps every executed
// instruction onto compileBC's fast array: an instruction that heads a fast
// bcIns counts one dispatch of that token, and one that starts a segment
// counts one tokSeg. The dispatch loop itself is not instrumented, so the
// counts hold for the code as it ships. opt.Trace, opt.TraceLimit and
// opt.Dispatch are overridden. Every function must compile to bytecode.
func DispatchCounts(prog *ir.Program, entry string, opt Options) (*Result, Dispatches, error) {
	type table struct {
		fn   *ir.Func
		bf   *bcFunc
		runs []int64 // executions per Instr.ID
	}
	tabs := map[string]*table{}
	for _, fn := range prog.Funcs {
		bf := compileBC(prog, fn)
		if bf == nil {
			return nil, Dispatches{}, fmt.Errorf("%s does not compile to bytecode", fn.Name)
		}
		tabs[fn.Name] = &table{fn: fn, bf: bf, runs: make([]int64, fn.NumInstrIDs())}
	}
	var cur *table
	curName := ""
	opt.Dispatch = DispatchSwitch
	opt.TraceLimit = math.MaxInt64
	opt.Trace = func(fn string, _ *ir.Block, ins *ir.Instr) {
		if cur == nil || fn != curName {
			cur, curName = tabs[fn], fn
		}
		cur.runs[ins.ID]++
	}
	res, err := Run(prog, entry, opt)
	if err != nil {
		return res, Dispatches{}, err
	}

	d := Dispatches{Tok: map[string]int64{}}
	for _, t := range tabs {
		bf := t.bf
		for _, seg := range bf.segs {
			n := t.runs[bf.origs[seg.origStart].ID]
			d.Tok["seg"] += n
			d.Fused += n
			d.Unfused += n
		}
		// Instruction heads appear in the fast array in orig order, so a
		// head's constituents run up to the next head's orig.
		var heads []int32
		for _, in := range bf.fast {
			if in.tok != tokSeg && in.tok != tokFellThrough {
				heads = append(heads, in.orig)
			}
		}
		for k, o := range heads {
			end := int32(len(bf.origs))
			if k+1 < len(heads) {
				end = heads[k+1]
			}
			n := t.runs[bf.origs[o].ID]
			if n == 0 {
				continue
			}
			ops := make([]string, 0, end-o)
			for _, ins := range bf.origs[o:end] {
				ops = append(ops, ins.Op.String())
				d.Unfused += t.runs[ins.ID]
			}
			d.Tok[strings.Join(ops, "+")] += n
			d.Fused += n
		}
	}
	if d.Unfused-d.Tok["seg"] != res.Steps {
		return res, d, fmt.Errorf("instruction dispatches %d != steps %d", d.Unfused-d.Tok["seg"], res.Steps)
	}
	return res, d, nil
}
