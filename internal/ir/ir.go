// Package ir defines the register-based intermediate representation used by
// the sign-extension-elimination compiler.
//
// The IR models the paper's setting (Kawahito, Komatsu, Nakatani: "Effective
// Sign Extension Elimination", PLDI 2002): a 64-bit machine on which every
// register is 64 bits wide, while most program values are declared as 8-, 16-
// or 32-bit integers. A W-bit operation executes as its 64-bit counterpart,
// so the upper 64-W bits of its destination register are in general garbage
// ("dirty"). An instruction that inspects the full register (integer→double
// conversion, 64-bit arithmetic, calls, returns, effective-address
// computation, ...) requires its operand to have been sign-extended with an
// explicit Ext instruction first.
//
// The IR is deliberately not SSA: like the paper's JIT, instructions read and
// write registers freely, and sign extensions generated by the optimizer
// always have the form "r = ext.W r" on a single register, which keeps UD/DU
// chain maintenance local.
package ir

import "fmt"

// Width is the nominal bit width of an integer value (8, 16, 32 or 64).
type Width uint8

// Supported value widths.
const (
	W8  Width = 8
	W16 Width = 16
	W32 Width = 32
	W64 Width = 64
)

// Bits returns the width as an integer bit count.
func (w Width) Bits() int { return int(w) }

// Mask returns the bit mask selecting the low w bits of a register.
func (w Width) Mask() uint64 {
	if w == W64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// SignExt sign-extends the low w bits of v to 64 bits.
func (w Width) SignExt(v int64) int64 {
	s := 64 - int(w)
	return v << s >> s
}

// ZeroExt zero-extends the low w bits of v to 64 bits.
func (w Width) ZeroExt(v int64) int64 { return int64(uint64(v) & w.Mask()) }

// InRange reports whether v is representable as a signed w-bit integer.
func (w Width) InRange(v int64) bool { return w.SignExt(v) == v }

// Reg identifies a virtual register within a function. Registers 0 through
// NParams-1 hold the incoming parameters. NoReg marks an absent operand.
type Reg int32

// NoReg is the absent-register sentinel.
const NoReg Reg = -1

func (r Reg) String() string {
	if r == NoReg {
		return "_"
	}
	return fmt.Sprintf("r%d", int32(r))
}

// Op enumerates the IR opcodes.
type Op uint8

// Opcodes. Integer arithmetic ops carry a Width of W32 or W64; loads, stores
// and array element accesses carry the width of the memory cell.
const (
	OpInvalid Op = iota

	OpConst  // Dst = Const (materialized fully sign-extended)
	OpFConst // Dst = F (float64)
	OpMov    // Dst = Src0 (full 64-bit register copy)
	OpFMov   // Dst = Src0 (float copy)

	OpAdd // Dst = Src0 + Src1
	OpSub // Dst = Src0 - Src1
	OpMul // Dst = Src0 * Src1
	OpDiv // Dst = Src0 / Src1 (traps on zero; operands must be extended)
	OpRem // Dst = Src0 % Src1 (traps on zero; operands must be extended)
	OpAnd // Dst = Src0 & Src1
	OpOr  // Dst = Src0 | Src1
	OpXor // Dst = Src0 ^ Src1
	OpNot // Dst = ^Src0
	OpNeg // Dst = -Src0

	OpShl  // Dst = Src0 << (Src1 & (W-1))
	OpAShr // Dst = Src0 >> (Src1 & (W-1)), arithmetic (bit-field extract on IA64)
	OpLShr // Dst = Src0 >>> (Src1 & (W-1)), logical (bit-field extract on IA64)

	OpExt      // Dst = sign-extend low W bits of Src0 (W in {8,16,32})
	OpZext     // Dst = zero-extend low W bits of Src0
	OpExtDummy // marker: asserts Src0 is already sign-extended from W bits (paper's just_extended())

	OpI2D // Dst(f) = float64(int32 Src0); Src0 must be sign-extended
	OpL2D // Dst(f) = float64(int64 Src0)
	OpD2I // Dst = int32(Src0 f); result is sign-extended by definition
	OpD2L // Dst = int64(Src0 f)

	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg
	OpFCall // Dst(f) = float builtin Callee(Args...) (sqrt, sin, cos, exp, log, fabs, pow)

	OpCall // Dst = Callee(Args...); int args/results follow the sign-extended convention
	OpRet  // return Src0 (if NSrcs==1)

	OpLoadG  // Dst = globals[Const], W bits; zero-extends on IA64-like machines
	OpStoreG // globals[Const] = low W bits of Src0

	OpNewArr   // Dst = new array of Src0 elements (elem width W; Float marks f64 elems)
	OpArrLoad  // Dst = Src0[Src1]; traps unless low32(Src1) in [0,len); EA uses the full Src1 register
	OpArrStore // Src0[Src1] = Src2
	OpArrLen   // Dst = len(Src0); result in [0, 2^31-1], hence sign-extended

	OpBr  // branch on Cond(Src0, Src1) with width W (W32 compares ignore upper bits)
	OpFBr // branch on float Cond(Src0, Src1)
	OpJmp // unconditional jump
	OpTrap

	OpPrint  // emit Src0 to program output (sign-extended int convention)
	OpFPrint // emit float Src0 to program output

	opMax
)

// Cond is a branch comparison condition.
type Cond uint8

// Comparison conditions; the U-suffixed forms are unsigned.
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
	CondULT
	CondULE
	CondUGT
	CondUGE
)

var condNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge", "ult", "ule", "ugt", "uge"}

func (c Cond) String() string { return condNames[c] }

// Negate returns the condition testing the opposite outcome.
func (c Cond) Negate() Cond {
	switch c {
	case CondEQ:
		return CondNE
	case CondNE:
		return CondEQ
	case CondLT:
		return CondGE
	case CondLE:
		return CondGT
	case CondGT:
		return CondLE
	case CondGE:
		return CondLT
	case CondULT:
		return CondUGE
	case CondULE:
		return CondUGT
	case CondUGT:
		return CondULE
	default:
		return CondULT
	}
}

// Eval applies the condition to two already-normalized integer values.
func (c Cond) Eval(a, b int64) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	case CondGE:
		return a >= b
	case CondULT:
		return uint64(a) < uint64(b)
	case CondULE:
		return uint64(a) <= uint64(b)
	case CondUGT:
		return uint64(a) > uint64(b)
	default:
		return uint64(a) >= uint64(b)
	}
}

// EvalF applies the condition to two floats.
func (c Cond) EvalF(a, b float64) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	default:
		return a >= b
	}
}

// Instr is a single IR instruction. Instructions are identified by pointer;
// the ID is unique within the function and stable across transformations, so
// analyses can use it as a map key or dense index.
type Instr struct {
	ID    int
	Op    Op
	W     Width
	Cond  Cond
	Dst   Reg
	Srcs  [3]Reg
	NSrcs int8
	Const int64
	F     float64
	Float bool // NewArr/ArrLoad/ArrStore: float64 elements

	Callee string
	Args   []Reg

	Blk *Block // owning block, maintained by Block insert/remove helpers
}

// NumSrcs returns the number of fixed source operands (excluding call Args).
func (i *Instr) NumSrcs() int { return int(i.NSrcs) }

// Src returns the k-th fixed source operand.
func (i *Instr) Src(k int) Reg { return i.Srcs[k] }

// ForEachUse invokes f for every register the instruction reads, including
// call arguments. The operand index passed to f counts fixed sources first,
// then call arguments.
func (i *Instr) ForEachUse(f func(opIdx int, r Reg)) {
	for k := 0; k < int(i.NSrcs); k++ {
		f(k, i.Srcs[k])
	}
	for k, a := range i.Args {
		f(int(i.NSrcs)+k, a)
	}
}

// UseAt returns the register read at operand index k (fixed sources first,
// then call arguments).
func (i *Instr) UseAt(k int) Reg {
	if k < int(i.NSrcs) {
		return i.Srcs[k]
	}
	return i.Args[k-int(i.NSrcs)]
}

// NumUses returns the total operand count including call arguments.
func (i *Instr) NumUses() int { return int(i.NSrcs) + len(i.Args) }

// SetUseAt replaces the register read at operand index k.
func (i *Instr) SetUseAt(k int, r Reg) {
	if k < int(i.NSrcs) {
		i.Srcs[k] = r
	} else {
		i.Args[k-int(i.NSrcs)] = r
	}
}

// HasDst reports whether the instruction defines a register.
func (i *Instr) HasDst() bool { return i.Dst != NoReg }

// IsExt reports whether the instruction is an explicit sign extension.
func (i *Instr) IsExt() bool { return i.Op == OpExt }

// IsDummy reports whether the instruction is a dummy (just_extended) marker.
func (i *Instr) IsDummy() bool { return i.Op == OpExtDummy }

// IsTerminator reports whether the instruction ends a basic block.
func (i *Instr) IsTerminator() bool {
	switch i.Op {
	case OpBr, OpFBr, OpJmp, OpRet, OpTrap:
		return true
	}
	return false
}

// Pure reports whether the instruction has no side effects and cannot trap,
// so it may be moved, duplicated or deleted when its result is unused.
func (i *Instr) Pure() bool {
	switch i.Op {
	case OpConst, OpFConst, OpMov, OpFMov, OpAdd, OpSub, OpMul, OpAnd, OpOr,
		OpXor, OpNot, OpNeg, OpShl, OpAShr, OpLShr, OpExt, OpZext,
		OpI2D, OpL2D, OpD2I, OpD2L, OpFAdd, OpFSub, OpFMul, OpFDiv, OpFNeg,
		OpArrLen:
		return true
	}
	return false
}

// Block is a basic block: a straight-line instruction sequence ended by a
// terminator. Succs ordering is significant: for OpBr, Succs[0] is the taken
// (condition true) target and Succs[1] the fall-through.
type Block struct {
	ID     int
	Instrs []*Instr
	Succs  []*Block
	Preds  []*Block
	Fn     *Func
}

func (b *Block) String() string { return fmt.Sprintf("b%d", b.ID) }

// Term returns the block terminator, or nil if the block is still open.
func (b *Block) Term() *Instr {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].IsTerminator() {
		return b.Instrs[n-1]
	}
	return nil
}

// IndexOf returns the position of ins within the block, or -1.
func (b *Block) IndexOf(ins *Instr) int {
	for k, x := range b.Instrs {
		if x == ins {
			return k
		}
	}
	return -1
}

// InsertAt places ins at position k within the block.
func (b *Block) InsertAt(k int, ins *Instr) {
	ins.Blk = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[k+1:], b.Instrs[k:])
	b.Instrs[k] = ins
}

// InsertBefore places ins immediately before pos (which must be in b).
func (b *Block) InsertBefore(pos, ins *Instr) {
	k := b.IndexOf(pos)
	if k < 0 {
		panic("ir: InsertBefore: position not in block")
	}
	b.InsertAt(k, ins)
}

// InsertAfter places ins immediately after pos (which must be in b).
func (b *Block) InsertAfter(pos, ins *Instr) {
	k := b.IndexOf(pos)
	if k < 0 {
		panic("ir: InsertAfter: position not in block")
	}
	b.InsertAt(k+1, ins)
}

// Remove deletes ins from the block.
func (b *Block) Remove(ins *Instr) {
	k := b.IndexOf(ins)
	if k < 0 {
		panic("ir: Remove: instruction not in block")
	}
	copy(b.Instrs[k:], b.Instrs[k+1:])
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
	ins.Blk = nil
}

// Func is a single compiled function. Blocks[0] is the entry block.
// Parameters arrive in registers 0..NParams-1 and, per the calling
// convention, integer parameters are already sign-extended from their width.
type Func struct {
	Name    string
	Params  []Param
	RetW    Width // W32 or W64 for int returns; 0 for void
	RetF    bool  // float return
	NReg    int   // number of virtual registers
	Blocks  []*Block
	nextIID int
	nextBID int
}

// Param describes one incoming parameter.
type Param struct {
	W     Width
	Float bool
	Ref   bool // array reference
}

// NParams returns the number of parameters.
func (f *Func) NParams() int { return len(f.Params) }

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Reg(f.NReg)
	f.NReg++
	return r
}

// NewBlock appends a fresh, empty basic block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextBID, Fn: f}
	f.nextBID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewInstr allocates an instruction owned by this function (not yet placed in
// a block).
func (f *Func) NewInstr(op Op) *Instr {
	ins := &Instr{ID: f.nextIID, Op: op, Dst: NoReg}
	f.nextIID++
	return ins
}

// NumInstrIDs returns an upper bound on instruction IDs, usable to size dense
// per-instruction tables. Verify rejects an instruction whose ID is outside
// [0, NumInstrIDs()).
func (f *Func) NumInstrIDs() int { return f.nextIID }

// NumBlockIDs returns an upper bound on block IDs, usable to size dense
// per-block tables. Verify rejects a block whose ID is outside
// [0, NumBlockIDs()).
func (f *Func) NumBlockIDs() int { return f.nextBID }

// ForEachInstr calls fn for every instruction in layout order.
func (f *Func) ForEachInstr(fn func(b *Block, ins *Instr)) {
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			fn(b, ins)
		}
	}
}

// CountOp returns the number of instructions with the given opcode.
func (f *Func) CountOp(op Op) int {
	n := 0
	f.ForEachInstr(func(_ *Block, ins *Instr) {
		if ins.Op == op {
			n++
		}
	})
	return n
}

// AddEdge records a CFG edge from b to s, maintaining both directions.
func AddEdge(b, s *Block) {
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// RemoveEdge deletes the CFG edge from b to s (one occurrence).
func RemoveEdge(b, s *Block) {
	for k, x := range b.Succs {
		if x == s {
			b.Succs = append(b.Succs[:k], b.Succs[k+1:]...)
			break
		}
	}
	for k, x := range s.Preds {
		if x == b {
			s.Preds = append(s.Preds[:k], s.Preds[k+1:]...)
			break
		}
	}
}

// Program is a set of functions plus the global scalar memory they share.
type Program struct {
	Funcs    []*Func
	byName   map[string]*Func
	NGlobals int // number of global scalar cells addressed by LoadG/StoreG
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{byName: map[string]*Func{}}
}

// AddFunc registers fn with the program.
func (p *Program) AddFunc(fn *Func) {
	if p.byName == nil {
		p.byName = map[string]*Func{}
	}
	if _, dup := p.byName[fn.Name]; dup {
		panic("ir: duplicate function " + fn.Name)
	}
	p.Funcs = append(p.Funcs, fn)
	p.byName[fn.Name] = fn
}

// Func looks a function up by name, returning nil if absent.
func (p *Program) Func(name string) *Func {
	return p.byName[name]
}

// ReplaceFunc swaps the program's function of the same name for fn. The
// guarded pipeline uses it to restore a pre-phase snapshot when a phase
// panics or fails verification. It panics if no function of that name is
// registered.
func (p *Program) ReplaceFunc(fn *Func) {
	if _, ok := p.byName[fn.Name]; !ok {
		panic("ir: ReplaceFunc: unknown function " + fn.Name)
	}
	p.byName[fn.Name] = fn
	for k, f := range p.Funcs {
		if f.Name == fn.Name {
			p.Funcs[k] = fn
			return
		}
	}
}

var opNames = [opMax]string{
	OpInvalid: "invalid", OpConst: "const", OpFConst: "fconst", OpMov: "mov",
	OpFMov: "fmov", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpRem: "rem", OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpNeg: "neg", OpShl: "shl", OpAShr: "ashr", OpLShr: "lshr", OpExt: "ext",
	OpZext: "zext", OpExtDummy: "ext.dummy", OpI2D: "i2d", OpL2D: "l2d",
	OpD2I: "d2i", OpD2L: "d2l", OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul",
	OpFDiv: "fdiv", OpFNeg: "fneg", OpFCall: "fcall", OpCall: "call",
	OpRet: "ret", OpLoadG: "loadg", OpStoreG: "storeg", OpNewArr: "newarr",
	OpArrLoad: "aload", OpArrStore: "astore", OpArrLen: "alen", OpBr: "br",
	OpFBr: "fbr", OpJmp: "jmp", OpTrap: "trap", OpPrint: "print",
	OpFPrint: "fprint",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}
