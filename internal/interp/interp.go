// Package interp executes IR programs with faithful 64-bit register
// semantics. It plays three roles in the reproduction:
//
//   - Soundness oracle: in Mode64 a W-bit operation executes as its 64-bit
//     counterpart, so the upper bits of its result are whatever the full
//     operation produced. Consumers that require sign-extended operands
//     (int→double conversion, 64-bit compares, calls, prints, effective
//     addresses) read the full register. A sign extension that was removed
//     unsoundly therefore corrupts the program output, which tests detect by
//     comparing against the unoptimized run.
//
//   - Measurement instrument: it counts dynamically executed sign-extension
//     instructions per width — the quantity reported in the paper's Tables 1
//     and 2 — and accumulates machine cycles under a pluggable cost model for
//     the performance figures.
//
//   - Profiler: in interpreter-tier (Mode32) frames it records entry counts
//     and taken/fall-through counts for every conditional branch,
//     reproducing the interpreter-collected profiles the paper feeds into
//     order determination (section 2.2).
package interp

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"signext/internal/ir"
	"signext/internal/profile"
)

// Mode selects the register semantics.
type Mode uint8

const (
	// Mode64 models a 64-bit machine: W-bit results carry dirty upper bits.
	Mode64 Mode = iota
	// Mode32 models the source ("32-bit architecture") semantics: every
	// W-bit result is normalized by sign extension. Used as the frontend
	// reference semantics.
	Mode32
)

// Profile is profile.Profile under the name older callers use.
type Profile = profile.Profile

// Options configures a run.
type Options struct {
	Mode         Mode
	Machine      ir.Machine
	MaxSteps     int64 // 0 means the default limit
	CheckDummies bool  // verify ext.dummy assertions at runtime

	// Profile collects Result.Profile: entry counts and branch outcomes of
	// Mode32 frames only, the interpreter tier. A Mode64 (compiled) frame
	// allocates no counters and counts nothing, since its instruction IDs
	// do not key into the source program.
	Profile bool

	// Cost is the per-instruction cycle cost model. It must be pure (a
	// function of the instruction alone): threaded dispatch evaluates it
	// once per instruction at bytecode-compile time and charges whole
	// segments at once, not in execution order.
	Cost func(*ir.Instr) int64

	MaxArrayLen int64 // language maximum array length (0 = 2^31-1)

	// Dispatch selects the execution engine. The default (DispatchAuto)
	// runs token-threaded bytecode and falls back to the reference tree
	// walker for options that observe individual instructions (Trace,
	// OnDef) and for irregular functions. Results are bit-identical either
	// way — the dispatch-identity property in internal/difftest enforces
	// it — so this knob exists for benchmarking and differential testing.
	Dispatch Dispatch

	// FuncMode, if set, overrides Mode per function: each call frame
	// executes under FuncMode(name). The tiered runtime uses this for
	// mixed-tier programs — functions still in the profiling interpreter
	// tier keep their 32-bit source form (Mode32) while promoted functions
	// run their compiled 64-bit form (Mode64). Cross-tier calls are sound
	// because both conventions pass sign-extended narrow arguments and
	// returns (Mode32 normalizes every def; compiled code keeps the
	// extensions the requiredness analysis demands at calls and returns).
	FuncMode func(name string) Mode

	// OnDef, if set, observes every integer definition as it executes
	// (instruction and the raw 64-bit register value written). Used by
	// tests to validate static analyses against runtime behaviour.
	OnDef func(*ir.Instr, int64)

	// Trace, if set, receives one line per executed instruction
	// ("funcname\tblock\tinstruction"), for debugging miscompiles.
	Trace func(fn string, blk *ir.Block, ins *ir.Instr)

	// TraceLimit bounds the number of Trace callbacks (0 = 100000).
	TraceLimit int64

	// MaxDepth bounds the call-frame depth. The interpreter recurses one Go
	// frame per interpreted call, so an unbounded deeply recursive program
	// would grow the Go stack without limit; past the bound the run returns
	// a structured ErrDepthExceeded instead. 0 selects DefaultMaxDepth;
	// negative means unlimited (tests only).
	MaxDepth int
}

// DefaultMaxDepth is the call-depth bound when Options.MaxDepth is 0. Deep
// enough for any real workload (each frame is one interpreted call, not one
// loop iteration), shallow enough that the Go stack stays modest.
const DefaultMaxDepth = 10000

// Result is the outcome of a run.
type Result struct {
	Output  string
	Steps   int64
	Cycles  int64
	Ext     [65]int64       // dynamic executed OpExt count, indexed by width
	Profile profile.Profile // Options.Profile; nil otherwise
}

// Ext32 returns the dynamically executed 32-bit sign extension count, the
// quantity of the paper's Tables 1 and 2.
func (r *Result) Ext32() int64 { return r.Ext[32] }

// ExtTotal returns all executed sign extensions across widths.
func (r *Result) ExtTotal() int64 { return r.Ext[8] + r.Ext[16] + r.Ext[32] }

// Runtime errors.
var (
	ErrStepLimit  = errors.New("interp: step limit exceeded")
	ErrWildEA     = errors.New("interp: corrupt effective address (dirty index register)")
	ErrBounds     = errors.New("interp: array index out of bounds")
	ErrNegSize    = errors.New("interp: negative array size")
	ErrDivZero    = errors.New("interp: division by zero")
	ErrDummy      = errors.New("interp: ext.dummy assertion violated")
	ErrNilArray   = errors.New("interp: nil array reference")
	ErrNoFunction = errors.New("interp: unknown function")
	ErrTrap       = errors.New("interp: trap executed")
	ErrDepth      = errors.New("interp: call depth exceeded")
)

type array struct {
	w  ir.Width
	fl bool
	i  []int64
	f  []float64
}

type slot struct {
	i int64
	f float64
	a *array
}

type cell struct {
	i int64
	f float64
}

const defaultMaxSteps = 1 << 31

type machine struct {
	prog       *ir.Program
	opt        Options
	mode       Mode // semantics of the currently executing function
	globals    []cell
	out        strings.Builder
	res        Result
	maxLen     int64
	depth      int   // current call-frame depth
	maxDepth   int   // resolved Options.MaxDepth (<= 0 means unlimited)
	traceLimit int64 // resolved Options.TraceLimit
	threaded   bool  // token-threaded dispatch enabled for this run

	code      *Code                 // where the run's bytecode comes from
	bc        map[*ir.Func]*bcState // per-run threaded state (nil value = walker)
	regPool   [][]slot              // recycled register files
	framePool []*bcFrame            // recycled threaded frames
}

// Run executes prog starting at function entry (no arguments, typically
// "main") and returns the result. A non-nil error reports a runtime trap or
// a detected miscompile; Result is still returned with the state accumulated
// so far.
func Run(prog *ir.Program, entry string, opt Options) (*Result, error) {
	return runCode(&Code{prog: prog}, entry, opt)
}

func runCode(code *Code, entry string, opt Options) (*Result, error) {
	prog := code.prog
	m := &machine{prog: prog, code: code, opt: opt, mode: opt.Mode, globals: make([]cell, prog.NGlobals)}
	m.maxLen = opt.MaxArrayLen
	if m.maxLen == 0 {
		m.maxLen = math.MaxInt32
	}
	m.maxDepth = opt.MaxDepth
	if m.maxDepth == 0 {
		m.maxDepth = DefaultMaxDepth
	}
	if opt.MaxSteps == 0 {
		opt.MaxSteps = defaultMaxSteps
		m.opt.MaxSteps = defaultMaxSteps
	}
	m.traceLimit = opt.TraceLimit
	if m.traceLimit == 0 {
		m.traceLimit = 100000
	}
	// Trace and OnDef observe individual instruction executions, which the
	// segment-batched fast path cannot deliver; they force the walker.
	m.threaded = opt.Dispatch != DispatchSwitch && opt.Trace == nil && opt.OnDef == nil
	if opt.Profile {
		m.res.Profile = profile.Profile{}
	}
	fn := prog.Func(entry)
	if fn == nil {
		return &m.res, fmt.Errorf("%w: %s", ErrNoFunction, entry)
	}
	_, err := m.call(fn, nil, nil)
	m.flushBCProfiles()
	m.res.Output = m.out.String()
	return &m.res, err
}

// call sets up one frame: it resolves the function's semantic mode (tiered
// runs mix Mode32 interpreter-tier and Mode64 compiled functions in one
// program), picks the dispatch engine, and restores the caller's mode on
// return. The callee reads its arguments directly from the caller's register
// file (caller[argRegs[k]] lands in the callee's register k), avoiding a
// per-call argument slice.
func (m *machine) call(fn *ir.Func, caller []slot, argRegs []ir.Reg) (slot, error) {
	if m.maxDepth > 0 && m.depth >= m.maxDepth {
		return slot{}, fmt.Errorf("%w: %d frames at call to %s", ErrDepth, m.depth, fn.Name)
	}
	m.depth++
	prev := m.mode
	if m.opt.FuncMode != nil {
		m.mode = m.opt.FuncMode(fn.Name)
	}
	var rv slot
	var err error
	if st := m.bcFor(fn); st != nil {
		rv, err = m.execBC(st, fn, caller, argRegs)
	} else {
		rv, err = m.exec(fn, caller, argRegs)
	}
	m.mode = prev
	m.depth--
	return rv, err
}

func (m *machine) exec(fn *ir.Func, caller []slot, argRegs []ir.Reg) (slot, error) {
	regs := m.acquireRegs(fn.NReg)
	defer m.releaseRegs(regs)
	for k, r := range argRegs {
		regs[k] = caller[r]
	}
	var prof *profile.FuncProfile
	if m.res.Profile != nil && m.mode == Mode32 {
		prof = m.res.Profile[fn.Name]
		if prof == nil {
			nbr := 0
			fn.ForEachInstr(func(_ *ir.Block, ins *ir.Instr) {
				if ins.Op == ir.OpBr || ins.Op == ir.OpFBr {
					nbr++
				}
			})
			prof = &profile.FuncProfile{Branches: make(map[int]profile.Counts, nbr)}
			m.res.Profile[fn.Name] = prof
		}
		prof.Calls++
	}
	b := fn.Entry()
	for {
		var next *ir.Block
		for _, ins := range b.Instrs {
			m.res.Steps++
			if m.res.Steps > m.opt.MaxSteps {
				return slot{}, ErrStepLimit
			}
			if m.opt.Cost != nil {
				m.res.Cycles += m.opt.Cost(ins)
			}
			if m.opt.Trace != nil && m.res.Steps <= m.traceLimit {
				m.opt.Trace(fn.Name, b, ins)
			}
			switch ins.Op {
			case ir.OpConst:
				regs[ins.Dst].i = ins.Const
			case ir.OpFConst:
				regs[ins.Dst].f = ins.F
			case ir.OpMov:
				regs[ins.Dst] = regs[ins.Srcs[0]]
			case ir.OpFMov:
				regs[ins.Dst].f = regs[ins.Srcs[0]].f
			case ir.OpAdd:
				m.setInt(regs, ins, regs[ins.Srcs[0]].i+regs[ins.Srcs[1]].i)
			case ir.OpSub:
				m.setInt(regs, ins, regs[ins.Srcs[0]].i-regs[ins.Srcs[1]].i)
			case ir.OpMul:
				m.setInt(regs, ins, regs[ins.Srcs[0]].i*regs[ins.Srcs[1]].i)
			case ir.OpDiv, ir.OpRem:
				x, y := regs[ins.Srcs[0]].i, regs[ins.Srcs[1]].i
				// Normalize the divisor by the operation width for every
				// width: a narrow divisor whose low W bits are zero divides
				// by zero no matter what its dirty upper bits hold. SignExt
				// at W64 is the identity, covering the plain y == 0 case.
				// (The old guard special-cased only W32, so a W8/W16 divisor
				// like 0x100 escaped the trap and divided by 256.)
				if ins.W.SignExt(y) == 0 {
					return slot{}, ErrDivZero
				}
				var v int64
				if ins.Op == ir.OpDiv {
					if x == math.MinInt64 && y == -1 {
						v = math.MinInt64
					} else {
						v = x / y
					}
				} else {
					if x == math.MinInt64 && y == -1 {
						v = 0
					} else {
						v = x % y
					}
				}
				// The division routine produces a properly extended W-bit
				// result (see ir.DefOf); dirty inputs yield a wrong value.
				if ins.W != ir.W64 {
					v = ins.W.SignExt(v)
				}
				regs[ins.Dst].i = v
			case ir.OpAnd:
				m.setInt(regs, ins, regs[ins.Srcs[0]].i&regs[ins.Srcs[1]].i)
			case ir.OpOr:
				m.setInt(regs, ins, regs[ins.Srcs[0]].i|regs[ins.Srcs[1]].i)
			case ir.OpXor:
				m.setInt(regs, ins, regs[ins.Srcs[0]].i^regs[ins.Srcs[1]].i)
			case ir.OpNot:
				m.setInt(regs, ins, ^regs[ins.Srcs[0]].i)
			case ir.OpNeg:
				m.setInt(regs, ins, -regs[ins.Srcs[0]].i)
			case ir.OpShl:
				x := regs[ins.Srcs[0]].i
				n := uint(regs[ins.Srcs[1]].i) & uint(ins.W-1)
				m.setInt(regs, ins, x<<n)
			case ir.OpAShr:
				x := regs[ins.Srcs[0]].i
				n := uint(regs[ins.Srcs[1]].i) & uint(ins.W-1)
				if ins.W == ir.W64 {
					regs[ins.Dst].i = x >> n
				} else {
					// Signed bit-field extract: reads only the low W bits.
					regs[ins.Dst].i = ins.W.SignExt(x) >> n
				}
			case ir.OpLShr:
				x := regs[ins.Srcs[0]].i
				n := uint(regs[ins.Srcs[1]].i) & uint(ins.W-1)
				if ins.W == ir.W64 {
					regs[ins.Dst].i = int64(uint64(x) >> n)
				} else {
					// A zero shift of a negative value keeps bit W-1 set, so
					// the result must go through Mode32 normalization like any
					// other narrow def (found by sxfuzz: ">>> 0" printed the
					// zero-extended register on the 32-bit reference).
					m.setInt(regs, ins, int64((uint64(x)&ins.W.Mask())>>n))
				}
			case ir.OpExt:
				m.res.Ext[ins.W]++
				regs[ins.Dst].i = ins.W.SignExt(regs[ins.Srcs[0]].i)
			case ir.OpZext:
				regs[ins.Dst].i = ins.W.ZeroExt(regs[ins.Srcs[0]].i)
			case ir.OpExtDummy:
				v := regs[ins.Srcs[0]].i
				if m.opt.CheckDummies && v != ins.W.SignExt(v) {
					return slot{}, fmt.Errorf("%w: %s holds %#x", ErrDummy, ins, uint64(v))
				}
				regs[ins.Dst].i = v
			case ir.OpI2D:
				// Converts the full register; a dirty operand gives a wrong
				// double (the reason statement (10) of Figure 3 demands an
				// extension).
				regs[ins.Dst].f = float64(regs[ins.Srcs[0]].i)
			case ir.OpL2D:
				regs[ins.Dst].f = float64(regs[ins.Srcs[0]].i)
			case ir.OpD2I:
				regs[ins.Dst].i = d2i(regs[ins.Srcs[0]].f)
			case ir.OpD2L:
				regs[ins.Dst].i = d2l(regs[ins.Srcs[0]].f)
			case ir.OpFAdd:
				regs[ins.Dst].f = regs[ins.Srcs[0]].f + regs[ins.Srcs[1]].f
			case ir.OpFSub:
				regs[ins.Dst].f = regs[ins.Srcs[0]].f - regs[ins.Srcs[1]].f
			case ir.OpFMul:
				regs[ins.Dst].f = regs[ins.Srcs[0]].f * regs[ins.Srcs[1]].f
			case ir.OpFDiv:
				regs[ins.Dst].f = regs[ins.Srcs[0]].f / regs[ins.Srcs[1]].f
			case ir.OpFNeg:
				regs[ins.Dst].f = -regs[ins.Srcs[0]].f
			case ir.OpFCall:
				v, err := m.fbuiltin(ins, regs)
				if err != nil {
					return slot{}, err
				}
				regs[ins.Dst].f = v
			case ir.OpCall:
				callee := m.prog.Func(ins.Callee)
				if callee == nil {
					return slot{}, fmt.Errorf("%w: %s", ErrNoFunction, ins.Callee)
				}
				rv, err := m.call(callee, regs, ins.Args)
				if err != nil {
					return slot{}, err
				}
				if ins.HasDst() {
					regs[ins.Dst] = rv
				}
			case ir.OpRet:
				if ins.NSrcs == 1 {
					return regs[ins.Srcs[0]], nil
				}
				return slot{}, nil
			case ir.OpLoadG:
				g := m.globals[ins.Const]
				if ins.Float {
					regs[ins.Dst].f = g.f
				} else {
					regs[ins.Dst].i = m.loadExtend(ins.W, g.i)
				}
			case ir.OpStoreG:
				if ins.Float {
					m.globals[ins.Const].f = regs[ins.Srcs[0]].f
				} else {
					m.globals[ins.Const].i = int64(uint64(regs[ins.Srcs[0]].i) & ins.W.Mask())
				}
			case ir.OpNewArr:
				n := regs[ins.Srcs[0]].i
				if n < 0 || n > m.maxLen {
					return slot{}, fmt.Errorf("%w: %d", ErrNegSize, n)
				}
				if n > 1<<28 {
					return slot{}, fmt.Errorf("interp: array too large for the host: %d", n)
				}
				a := &array{w: ins.W, fl: ins.Float}
				if ins.Float {
					a.f = make([]float64, n)
				} else {
					a.i = make([]int64, n)
				}
				regs[ins.Dst].a = a
			case ir.OpArrLoad:
				a := regs[ins.Srcs[0]].a
				k, err := m.index(a, regs[ins.Srcs[1]].i)
				if err != nil {
					return slot{}, err
				}
				if a.fl {
					regs[ins.Dst].f = a.f[k]
				} else {
					regs[ins.Dst].i = m.loadExtend(ins.W, a.i[k])
				}
			case ir.OpArrStore:
				a := regs[ins.Srcs[0]].a
				k, err := m.index(a, regs[ins.Srcs[1]].i)
				if err != nil {
					return slot{}, err
				}
				if a.fl {
					a.f[k] = regs[ins.Srcs[2]].f
				} else {
					a.i[k] = int64(uint64(regs[ins.Srcs[2]].i) & ins.W.Mask())
				}
			case ir.OpArrLen:
				a := regs[ins.Srcs[0]].a
				if a == nil {
					return slot{}, ErrNilArray
				}
				if a.fl {
					regs[ins.Dst].i = int64(len(a.f))
				} else {
					regs[ins.Dst].i = int64(len(a.i))
				}
			case ir.OpBr:
				// cmp4 width semantics live in evalBr, shared with the
				// threaded dispatcher so the two engines cannot drift.
				taken := evalBr(ins.Cond, ins.W, regs[ins.Srcs[0]].i, regs[ins.Srcs[1]].i)
				if prof != nil {
					countBranch(prof, ins.ID, taken)
				}
				if taken {
					next = ins.Blk.Succs[0]
				} else {
					next = ins.Blk.Succs[1]
				}
			case ir.OpFBr:
				taken := ins.Cond.EvalF(regs[ins.Srcs[0]].f, regs[ins.Srcs[1]].f)
				if prof != nil {
					countBranch(prof, ins.ID, taken)
				}
				if taken {
					next = ins.Blk.Succs[0]
				} else {
					next = ins.Blk.Succs[1]
				}
			case ir.OpJmp:
				next = ins.Blk.Succs[0]
			case ir.OpTrap:
				return slot{}, ErrTrap
			case ir.OpPrint:
				// The runtime print routine consumes the full register per
				// the sign-extended argument convention.
				m.out.WriteString(strconv.FormatInt(regs[ins.Srcs[0]].i, 10))
				m.out.WriteByte('\n')
			case ir.OpFPrint:
				m.out.WriteString(strconv.FormatFloat(regs[ins.Srcs[0]].f, 'g', 12, 64))
				m.out.WriteByte('\n')
			default:
				return slot{}, fmt.Errorf("interp: cannot execute %s", ins)
			}
			if m.opt.OnDef != nil && ins.HasDst() {
				m.opt.OnDef(ins, regs[ins.Dst].i)
			}
		}
		if next == nil {
			return slot{}, fmt.Errorf("interp: block %s fell through", b)
		}
		b = next
	}
}

// countBranch records one outcome of branch id in the walker's profile.
func countBranch(prof *profile.FuncProfile, id int, taken bool) {
	if taken {
		prof.Add(id, 1, 0)
	} else {
		prof.Add(id, 0, 1)
	}
}

// setInt writes an integer result, normalizing in Mode32.
func (m *machine) setInt(regs []slot, ins *ir.Instr, v int64) {
	if m.mode == Mode32 && ins.W != ir.W64 {
		v = ins.W.SignExt(v)
	}
	regs[ins.Dst].i = v
}

// loadExtend applies the machine's memory-read extension to a W-bit cell.
func (m *machine) loadExtend(w ir.Width, raw int64) int64 {
	if w == ir.W64 {
		return raw
	}
	if m.mode == Mode32 || m.opt.Machine == ir.PPC64 {
		return w.SignExt(raw)
	}
	return w.ZeroExt(raw) // IA64: zero-extending loads
}

// index validates an array access. The bounds check compares the low 32 bits
// of the index register (cmp4.geu); the effective address is formed from the
// full register (shladd), so a dirty register that passes the bounds check is
// a detected miscompile.
func (m *machine) index(a *array, idx int64) (int64, error) {
	if a == nil {
		return 0, ErrNilArray
	}
	n := int64(len(a.i))
	if a.fl {
		n = int64(len(a.f))
	}
	low := uint32(uint64(idx))
	if uint64(low) >= uint64(n) {
		return 0, fmt.Errorf("%w: index %d (low32 of %#x), length %d", ErrBounds, int32(low), uint64(idx), n)
	}
	if m.mode == Mode32 {
		return int64(low), nil
	}
	if idx != int64(low) {
		return 0, fmt.Errorf("%w: register %#x, semantic index %d", ErrWildEA, uint64(idx), low)
	}
	return idx, nil
}

func (m *machine) fbuiltin(ins *ir.Instr, regs []slot) (float64, error) {
	arg := func(k int) float64 { return regs[ins.Args[k]].f }
	switch ins.Callee {
	case "sqrt":
		return math.Sqrt(arg(0)), nil
	case "sin":
		return math.Sin(arg(0)), nil
	case "cos":
		return math.Cos(arg(0)), nil
	case "atan":
		return math.Atan(arg(0)), nil
	case "exp":
		return math.Exp(arg(0)), nil
	case "log":
		return math.Log(arg(0)), nil
	case "fabs":
		return math.Abs(arg(0)), nil
	case "pow":
		return math.Pow(arg(0), arg(1)), nil
	case "floor":
		return math.Floor(arg(0)), nil
	}
	return 0, fmt.Errorf("interp: unknown float builtin %q", ins.Callee)
}

// d2i converts with Java semantics: NaN to zero, saturating at the int32
// range boundaries; the result is sign-extended by construction.
func d2i(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return math.MinInt32
	}
	return int64(int32(f))
}

func d2l(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}
