package ir

import "fmt"

// This file classifies how every opcode interacts with sign extension. The
// classification drives both the paper's UD/DU-chain analyses (AnalyzeUSE /
// AnalyzeDEF, section 2.3) and the first algorithm's backward dataflow.
//
// Demand model: a consumer "demands" some number of low bits of each operand
// register. A sign extension "r = ext.W r" is removable along the DU
// direction iff every transitive demand on its result is at most W bits
// (paper: "the upper bits of its destination operand do not affect the
// correct execution of the following instructions").

// UseClass describes how an instruction consumes one operand register.
type UseClass uint8

const (
	// UseLow: the instruction inspects only the low Bits bits of the
	// operand; the remaining bits never affect execution (AnalyzeUSE Case 1
	// when Bits <= the extension width).
	UseLow UseClass = iota
	// UseAll: the instruction inspects the whole 64-bit register, so the
	// operand must be properly sign-extended.
	UseAll
	// UseThrough: low k bits of the result depend only on the low k bits of
	// this operand for any k <= Bits; a demand beyond Bits escalates to the
	// full register (AnalyzeUSE Case 2).
	UseThrough
	// UseIndex: the operand is an array subscript feeding an effective
	// address computation; eligible for the paper's AnalyzeARRAY theorems.
	UseIndex
	// UseRef: the operand is an array reference (never the target of an
	// integer sign extension).
	UseRef
	// UseFloat: the operand is a float register.
	UseFloat
)

// Use describes the consumption of one operand.
type Use struct {
	Class UseClass
	Bits  uint8 // meaningful for UseLow and UseThrough
}

// DemandBits converts the use into a bit demand given the demand placed on
// the consuming instruction's own destination (dstDemand; 0 when the
// destination is undemanded or absent).
func (u Use) DemandBits(dstDemand uint8) uint8 {
	switch u.Class {
	case UseLow:
		return u.Bits
	case UseAll:
		return 64
	case UseThrough:
		if dstDemand == 0 {
			return 0
		}
		if dstDemand <= u.Bits {
			return dstDemand
		}
		return 64
	case UseIndex:
		// Treated as a full demand by width-based analyses; AnalyzeARRAY
		// refines this with Theorems 1-4.
		return 64
	default:
		return 0
	}
}

// UseOf classifies how ins consumes its operand at index k (fixed sources
// first, then call arguments, matching Instr.UseAt).
func UseOf(ins *Instr, k int) Use {
	w := uint8(ins.W)
	switch ins.Op {
	case OpMov:
		return Use{UseThrough, 64}
	case OpFMov, OpFAdd, OpFSub, OpFMul, OpFDiv, OpFNeg, OpD2I, OpD2L,
		OpFPrint, OpFBr:
		return Use{UseFloat, 0}
	case OpFCall:
		return Use{UseFloat, 0}
	case OpAdd, OpSub, OpMul, OpNot, OpNeg:
		// Low k bits of the result depend only on low k bits of the sources
		// (k <= W); demanding more than W bits forces fully valid inputs.
		return Use{UseThrough, w}
	case OpAnd, OpOr, OpXor:
		return Use{UseThrough, w}
	case OpShl:
		if k == 1 {
			return Use{UseLow, 8} // shift amount: low log2(W) bits
		}
		return Use{UseThrough, w}
	case OpAShr, OpLShr:
		if k == 1 {
			return Use{UseLow, 8}
		}
		if ins.W == W64 {
			return Use{UseAll, 0}
		}
		// 32-bit shifts lower to bit-field extracts (IA64 extr/extr.u,
		// PPC64 rlwinm-style), which read only the low W bits.
		return Use{UseLow, w}
	case OpDiv, OpRem:
		// Integer division executes at full register width; both operands
		// must be properly extended regardless of W.
		return Use{UseAll, 0}
	case OpExt, OpZext:
		return Use{UseLow, w}
	case OpExtDummy:
		// The dummy only asserts a fact; it reads nothing at runtime.
		return Use{UseLow, 0}
	case OpI2D, OpL2D:
		return Use{UseAll, 0}
	case OpCall:
		// Integer arguments follow the sign-extended calling convention.
		return Use{UseAll, 0}
	case OpRet:
		if ins.Blk != nil && ins.Blk.Fn != nil {
			fn := ins.Blk.Fn
			if fn.RetF {
				return Use{UseFloat, 0}
			}
		}
		return Use{UseAll, 0}
	case OpStoreG:
		if ins.W == W64 {
			return Use{UseAll, 0}
		}
		return Use{UseLow, w} // stores write only the low W bits
	case OpNewArr:
		return Use{UseAll, 0} // the allocator consumes a real length
	case OpArrLoad:
		if k == 0 {
			return Use{UseRef, 0}
		}
		return Use{UseIndex, 0}
	case OpArrStore:
		switch k {
		case 0:
			return Use{UseRef, 0}
		case 1:
			return Use{UseIndex, 0}
		default:
			if ins.Float {
				return Use{UseFloat, 0}
			}
			if ins.W == W64 {
				return Use{UseAll, 0}
			}
			return Use{UseLow, w}
		}
	case OpArrLen:
		return Use{UseRef, 0}
	case OpBr:
		if ins.W == W64 {
			return Use{UseAll, 0}
		}
		// 32-bit compares (IA64 cmp4, including the unsigned forms used by
		// bounds checks) ignore the upper halves of both registers.
		return Use{UseLow, w}
	case OpPrint:
		// Modeled as a runtime call taking a sign-extended argument.
		return Use{UseAll, 0}
	}
	return Use{UseAll, 0}
}

// RequiresExt reports whether operand k of ins demands a properly
// sign-extended register on its own (ignoring pass-through demands), together
// with the special array-index case. This is the paper's "instruction that
// requires sign extensions" notion used by the insertion phase.
func RequiresExt(ins *Instr, k int) bool {
	u := UseOf(ins, k)
	return u.Class == UseAll || u.Class == UseIndex
}

// DefClass describes the sign-extension state of an instruction's result.
type DefClass uint8

const (
	// DefDirty: the upper bits of the result are garbage in general
	// (e.g. 32-bit add/sub/mul, zero-extending loads).
	DefDirty DefClass = iota
	// DefExtended: the result is guaranteed sign-extended from Bits bits
	// (AnalyzeDEF Case 1).
	DefExtended
	// DefThrough: the result is sign-extended iff all integer sources are
	// (AnalyzeDEF Case 2: copies and bitwise ops).
	DefThrough
	// DefFloat: the result is a float register.
	DefFloat
	// DefRefKind: the result is an array reference.
	DefRefKind
)

// Def describes an instruction's destination.
type Def struct {
	Class DefClass
	Bits  uint8 // for DefExtended: extended-from width; for DefThrough: op width
	U32Z  bool  // upper 32 bits guaranteed zero (Theorem 1/3 precondition)
}

// smallestExtWidth returns the narrowest w in {8,16,32,64} such that v is a
// valid signed w-bit value.
func smallestExtWidth(v int64) uint8 {
	switch {
	case W8.InRange(v):
		return 8
	case W16.InRange(v):
		return 16
	case W32.InRange(v):
		return 32
	default:
		return 64
	}
}

// DefOf classifies the destination of ins using only the instruction itself
// (no UD-chain context). Analyses refine DefThrough recursively and combine
// DefDirty cases with value-range facts (e.g. AND with a non-negative mask).
func DefOf(ins *Instr, machine Machine) Def {
	switch ins.Op {
	case OpConst:
		v := ins.Const
		return Def{DefExtended, smallestExtWidth(v), v >= 0 && W32.InRange(v)}
	case OpFConst, OpFMov, OpFAdd, OpFSub, OpFMul, OpFDiv, OpFNeg, OpI2D,
		OpL2D, OpFCall:
		return Def{Class: DefFloat}
	case OpNewArr:
		return Def{Class: DefRefKind}
	case OpMov:
		return Def{DefThrough, 64, false}
	case OpAnd, OpOr, OpXor, OpNot:
		// Bitwise ops preserve sign-extendedness: if every source register
		// equals the sign extension of its low W bits, so does the result.
		return Def{DefThrough, uint8(ins.W), false}
	case OpAdd, OpSub, OpMul, OpNeg, OpShl:
		if ins.W == W64 {
			return Def{DefExtended, 64, false}
		}
		return Def{Class: DefDirty}
	case OpDiv, OpRem:
		// Division executes on genuine values; a W-bit quotient/remainder
		// fits in W bits, so the result is sign-extended.
		return Def{DefExtended, uint8(ins.W), false}
	case OpAShr:
		if ins.W == W64 {
			return Def{DefExtended, 64, false}
		}
		// Signed bit-field extract produces a sign-extended W-bit value.
		return Def{DefExtended, uint8(ins.W), false}
	case OpLShr:
		if ins.W == W64 {
			return Def{DefExtended, 64, false}
		}
		// Unsigned extract: upper bits zero; sign-extended as a W-bit value
		// only if the shift amount is nonzero, which analyses check via the
		// range of the amount; here report the unconditional fact.
		return Def{Class: DefDirty, U32Z: ins.W <= W32}
	case OpExt:
		return Def{DefExtended, uint8(ins.W), false}
	case OpExtDummy:
		return Def{DefExtended, uint8(ins.W), false}
	case OpZext:
		// zext.W yields a value in [0, 2^W-1]: upper 32 bits zero for W<=32,
		// and sign-extended when viewed at the next width up.
		b := uint8(ins.W) * 2
		if ins.W == W64 {
			b = 64
		}
		return Def{DefExtended, b, ins.W <= W32}
	case OpD2I:
		return Def{DefExtended, 32, false}
	case OpD2L:
		return Def{DefExtended, 64, false}
	case OpCall:
		if ins.Float {
			return Def{Class: DefFloat}
		}
		// Integer results follow the sign-extended calling convention.
		return Def{DefExtended, uint8(ins.W), false}
	case OpArrLen:
		// Lengths lie in [0, 2^31-1]: sign-extended and upper-32 zero.
		return Def{DefExtended, 32, true}
	case OpLoadG, OpArrLoad:
		if ins.Float {
			return Def{Class: DefFloat}
		}
		if ins.W == W64 {
			return Def{DefExtended, 64, false}
		}
		if machine == PPC64 {
			// lwa / lha: memory reads sign-extend implicitly.
			return Def{DefExtended, uint8(ins.W), false}
		}
		// IA64: memory reads zero-extend.
		return Def{Class: DefDirty, U32Z: true}
	}
	return Def{Class: DefDirty}
}

// Machine selects the memory-read extension behaviour and lowering style.
type Machine uint8

// Supported machine models.
const (
	// IA64: loads zero-extend; explicit sxt needed; shladd computes array
	// EAs in one instruction when the index is extended.
	IA64 Machine = iota
	// PPC64: loads sign-extend implicitly (lwa/lha); exts for explicit
	// extension; rldic can form EAs from known-non-negative indices.
	PPC64
)

func (m Machine) String() string {
	if m == PPC64 {
		return "ppc64"
	}
	return "ia64"
}

// ParseMachine resolves a machine model name, the inverse of String.
func ParseMachine(name string) (Machine, error) {
	for _, m := range []Machine{IA64, PPC64} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown machine %q", name)
}
