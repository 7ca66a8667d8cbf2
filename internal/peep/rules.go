package peep

import (
	"math"
	"math/bits"

	"signext/internal/guard"
	"signext/internal/ir"
)

// ArgKind says how one pattern operand matches.
type ArgKind int

const (
	// ArgVar matches any operand register and binds Name to it.
	ArgVar ArgKind = iota
	// ArgConst matches an operand the value-range analysis proves constant
	// and binds Name to the value. Two operands bound to the same Name must
	// hold the same constant.
	ArgConst
	// ArgConstVal matches an operand proven to be exactly the constant Val.
	ArgConstVal
	// ArgSub matches an operand whose unique reaching definition is a
	// same-block instruction matching the nested pattern Sub with no other
	// uses, so it is guaranteed dead once the anchor is rewritten.
	ArgSub
)

// PatArg is one operand of a pattern instruction.
type PatArg struct {
	Kind ArgKind
	Name string
	Val  int64
	Sub  *Pat
}

// Pat is a pattern over one instruction: the opcode plus one PatArg per
// fixed operand. The anchor pattern's width is constrained by Rule.Widths;
// nested patterns must match the anchor's width exactly.
type Pat struct {
	Op   ir.Op
	Args []PatArg
}

// Guard is a named predicate over the match bindings and the value-range
// facts. Guards may stash computed constants (via Match.Set) for the
// replacement template to consume. The name appears in documentation and in
// the generated-test lint, so keep it a readable sentence fragment.
type Guard struct {
	Name string
	Fn   func(m *Match) bool
}

// RInstr is one instruction of a replacement template. Instructions are
// emitted in order immediately before the anchor; the last one rewrites the
// anchor in place (keeping its destination register), so its Dst must be
// RDst. W == 0 means "the anchor's width". Const, when set, makes this an
// OpConst whose value is resolved against the match bindings; with W == 0
// its width is the narrowest of W32 and W64 that holds the value, so wide
// magic multipliers are honestly annotated.
type RInstr struct {
	Op    ir.Op
	W     ir.Width
	Dst   string
	Args  []string
	Const func(m *Match) int64
}

// RDst is the template destination name denoting the anchor's own register.
const RDst = "out"

// GenIn describes one runtime input of a generated rule test program.
type GenIn struct {
	// Mask, when positive, launders the input through a 64-bit and with
	// this constant, establishing the value-range fact [0, Mask] that the
	// rule's guards consume. Zero launders through globals only (full
	// range). Const materializes the (single) value as a plain constant
	// instead, giving the analysis an exact range.
	Mask  int64
	Const bool
	Vals  []int64
}

// GenSpec parameterizes GenProgram for one rule: the width to instantiate
// the anchor at, values for the pattern's named constants, and the runtime
// inputs for its variables.
type GenSpec struct {
	W      ir.Width
	Consts map[string]int64
	Inputs map[string]GenIn
}

// Rule is one row of the declarative table.
type Rule struct {
	Name    string
	Doc     string
	Pattern Pat
	Commute bool       // also match the anchor with swapped operands
	Widths  []ir.Width // anchor widths the rule applies at
	Guards  []Guard

	// Replace is the rewrite template for value rules. Branch, set instead
	// for control-flow rules, performs the rewrite itself (the only current
	// one folds a range-decided conditional branch to a jump).
	Replace []RInstr
	Branch  func(m *Match) bool

	Gen GenSpec
}

// helpers keeping the table itself readable ------------------------------

func pv(name string) PatArg { return PatArg{Kind: ArgVar, Name: name} }
func pc(name string) PatArg { return PatArg{Kind: ArgConst, Name: name} }
func pcv(v int64) PatArg    { return PatArg{Kind: ArgConstVal, Val: v} }
func psub(op ir.Op, args ...PatArg) PatArg {
	return PatArg{Kind: ArgSub, Sub: &Pat{Op: op, Args: args}}
}

func rop(op ir.Op, dst string, args ...string) RInstr {
	return RInstr{Op: op, Dst: dst, Args: args}
}

func rop64(op ir.Op, dst string, args ...string) RInstr {
	return RInstr{Op: op, W: ir.W64, Dst: dst, Args: args}
}

// rconst emits an OpConst holding the named match constant (bound by the
// pattern or computed by a guard).
func rconst(dst, name string) RInstr {
	return RInstr{
		Op:    ir.OpConst,
		Dst:   dst,
		Const: func(m *Match) int64 { return m.Const(name) },
	}
}

func anyWidth() []ir.Width { return []ir.Width{ir.W32, ir.W64} }

func maxSigned(w ir.Width) int64 {
	if w == ir.W64 {
		return math.MaxInt64
	}
	return int64(w.Mask() >> 1)
}

// nonNegIn reports whether the bound variable's value range is proven
// within [0, hi] — for W32 operands this is exactly the paper's
// upper-32-bits-zero fact.
func nonNegIn(m *Match, name string, hi int64) bool {
	r := m.RangeOf(name)
	return !r.IsBottom() && r.Lo >= 0 && r.Hi <= hi
}

// pow2Guard matches c == 2^k with 1 <= k <= W-1 and stashes k.
func pow2Guard(cname, kname string) Guard {
	return Guard{
		Name: cname + " is a power of two 2^k, 1 <= k <= W-1",
		Fn: func(m *Match) bool {
			c := m.Const(cname)
			if c <= 1 || c&(c-1) != 0 {
				return false
			}
			k := int64(bits.TrailingZeros64(uint64(c)))
			if k < 1 || k > int64(m.W)-1 {
				return false
			}
			m.Set(kname, k)
			return true
		},
	}
}

// magicGuard requires a vrange-bounded non-negative 32-bit dividend and an
// exact round-up magic pair for the matched divisor, stashing M and S.
func magicGuard() Guard {
	return Guard{
		Name: "dividend proven in [0, N] with exact magic M, S for the divisor",
		Fn: func(m *Match) bool {
			d := m.Const("d")
			if d < 3 || d&(d-1) == 0 {
				return false
			}
			r := m.RangeOf("x")
			if r.IsBottom() || r.Lo < 0 || r.Hi > math.MaxInt32 {
				return false
			}
			mg, ok := FindMagic(d, r.Hi)
			if !ok {
				return false
			}
			m.Set("M", mg.M)
			m.Set("S", int64(mg.S))
			return true
		},
	}
}

// Rules is the declarative table. Order matters: the first matching rule
// rewrites the instruction, so cheaper special cases precede general ones
// (power-of-two division before magic-number division).
var Rules = []Rule{
	{
		Name:    "div-pow2",
		Doc:     "x / 2^k  =>  x >>u k  when x is proven non-negative",
		Pattern: Pat{Op: ir.OpDiv, Args: []PatArg{pv("x"), pc("c")}},
		Widths:  anyWidth(),
		Guards: []Guard{
			pow2Guard("c", "k"),
			{Name: "x proven non-negative within the width", Fn: func(m *Match) bool {
				return nonNegIn(m, "x", maxSigned(m.W))
			}},
		},
		Replace: []RInstr{
			rconst("k", "k"),
			rop(ir.OpLShr, RDst, "x", "k"),
		},
		Gen: GenSpec{
			W:      ir.W32,
			Consts: map[string]int64{"c": 16},
			Inputs: map[string]GenIn{"x": {Mask: 0x7fff, Vals: []int64{0, 12345, 32767}}},
		},
	},
	{
		Name:    "rem-pow2",
		Doc:     "x % 2^k  =>  x & (2^k - 1)  when x is proven non-negative",
		Pattern: Pat{Op: ir.OpRem, Args: []PatArg{pv("x"), pc("c")}},
		Widths:  anyWidth(),
		Guards: []Guard{
			pow2Guard("c", "k"),
			{Name: "x proven non-negative within the width", Fn: func(m *Match) bool {
				if !nonNegIn(m, "x", maxSigned(m.W)) {
					return false
				}
				m.Set("mask", m.Const("c")-1)
				return true
			}},
		},
		Replace: []RInstr{
			rconst("mask", "mask"),
			rop(ir.OpAnd, RDst, "x", "mask"),
		},
		Gen: GenSpec{
			W:      ir.W32,
			Consts: map[string]int64{"c": 32},
			Inputs: map[string]GenIn{"x": {Mask: 0x7fff, Vals: []int64{1, 9999, 32767}}},
		},
	},
	{
		Name: "div-magic",
		Doc: "x / d  =>  (x * M) >>u S  by the round-up magic-number method, " +
			"exact over the proven dividend range [0, N]",
		Pattern: Pat{Op: ir.OpDiv, Args: []PatArg{pv("x"), pc("d")}},
		Widths:  []ir.Width{ir.W32},
		Guards:  []Guard{magicGuard()},
		Replace: []RInstr{
			rconst("M", "M"),
			rop64(ir.OpMul, "t", "x", "M"),
			rconst("S", "S"),
			rop64(ir.OpLShr, RDst, "t", "S"),
		},
		Gen: GenSpec{
			W:      ir.W32,
			Consts: map[string]int64{"d": 7},
			Inputs: map[string]GenIn{"x": {Mask: 0xfffff, Vals: []int64{0, 54321, 1048575}}},
		},
	},
	{
		Name:    "rem-magic",
		Doc:     "x % d  =>  x - ((x * M) >>u S) * d  via the magic quotient",
		Pattern: Pat{Op: ir.OpRem, Args: []PatArg{pv("x"), pc("d")}},
		Widths:  []ir.Width{ir.W32},
		Guards:  []Guard{magicGuard()},
		Replace: []RInstr{
			rconst("M", "M"),
			rop64(ir.OpMul, "t", "x", "M"),
			rconst("S", "S"),
			rop64(ir.OpLShr, "q", "t", "S"),
			rconst("d", "d"),
			rop64(ir.OpMul, "qd", "q", "d"),
			rop64(ir.OpSub, RDst, "x", "qd"),
		},
		Gen: GenSpec{
			W:      ir.W32,
			Consts: map[string]int64{"d": 10},
			Inputs: map[string]GenIn{"x": {Mask: 0xfffff, Vals: []int64{6, 123456, 1048575}}},
		},
	},
	{
		Name:    "shl-shl",
		Doc:     "(x << a) << b  =>  x << (a+b)",
		Pattern: Pat{Op: ir.OpShl, Args: []PatArg{psub(ir.OpShl, pv("x"), pc("a")), pc("b")}},
		Widths:  anyWidth(),
		Guards: []Guard{
			{Name: "a, b >= 0 and a+b <= W-1", Fn: func(m *Match) bool {
				a, b := m.Const("a"), m.Const("b")
				if a < 0 || b < 0 || a+b > int64(m.W)-1 {
					return false
				}
				m.Set("s", a+b)
				return true
			}},
		},
		Replace: []RInstr{
			rconst("s", "s"),
			rop(ir.OpShl, RDst, "x", "s"),
		},
		Gen: GenSpec{
			W:      ir.W64,
			Consts: map[string]int64{"a": 5, "b": 7},
			Inputs: map[string]GenIn{"x": {Vals: []int64{1, -1, 123456789}}},
		},
	},
	{
		Name:    "mul-pow2",
		Doc:     "x * 2^k  =>  x << k",
		Pattern: Pat{Op: ir.OpMul, Args: []PatArg{pv("x"), pc("c")}},
		Commute: true,
		Widths:  anyWidth(),
		Guards:  []Guard{pow2Guard("c", "k")},
		Replace: []RInstr{
			rconst("k", "k"),
			rop(ir.OpShl, RDst, "x", "k"),
		},
		Gen: GenSpec{
			W:      ir.W32,
			Consts: map[string]int64{"c": 8},
			Inputs: map[string]GenIn{"x": {Vals: []int64{3, -5, 4097}}},
		},
	},
	{
		Name:    "mul-one",
		Doc:     "x * 1  =>  x",
		Pattern: Pat{Op: ir.OpMul, Args: []PatArg{pv("x"), pcv(1)}},
		Commute: true,
		Widths:  anyWidth(),
		Replace: []RInstr{rop(ir.OpMov, RDst, "x")},
		Gen: GenSpec{
			W:      ir.W32,
			Inputs: map[string]GenIn{"x": {Vals: []int64{6, -14, 31415}}},
		},
	},
	{
		Name:    "or-zero",
		Doc:     "x | 0  =>  x",
		Pattern: Pat{Op: ir.OpOr, Args: []PatArg{pv("x"), pcv(0)}},
		Commute: true,
		Widths:  anyWidth(),
		Replace: []RInstr{rop(ir.OpMov, RDst, "x")},
		Gen: GenSpec{
			W:      ir.W32,
			Inputs: map[string]GenIn{"x": {Vals: []int64{5, -7, 1234567}}},
		},
	},
	{
		Name:    "and-minusone",
		Doc:     "x & -1  =>  x",
		Pattern: Pat{Op: ir.OpAnd, Args: []PatArg{pv("x"), pcv(-1)}},
		Commute: true,
		Widths:  anyWidth(),
		Replace: []RInstr{rop(ir.OpMov, RDst, "x")},
		Gen: GenSpec{
			W:      ir.W32,
			Inputs: map[string]GenIn{"x": {Vals: []int64{5, -7, 123456}}},
		},
	},
	{
		Name:    "xor-zero",
		Doc:     "x ^ 0  =>  x",
		Pattern: Pat{Op: ir.OpXor, Args: []PatArg{pv("x"), pcv(0)}},
		Commute: true,
		Widths:  anyWidth(),
		Replace: []RInstr{rop(ir.OpMov, RDst, "x")},
		Gen: GenSpec{
			W:      ir.W32,
			Inputs: map[string]GenIn{"x": {Vals: []int64{9, -3, 271828}}},
		},
	},
	{
		Name:    "add-zero",
		Doc:     "x + 0  =>  x",
		Pattern: Pat{Op: ir.OpAdd, Args: []PatArg{pv("x"), pcv(0)}},
		Commute: true,
		Widths:  anyWidth(),
		Replace: []RInstr{rop(ir.OpMov, RDst, "x")},
		Gen: GenSpec{
			W:      ir.W32,
			Inputs: map[string]GenIn{"x": {Vals: []int64{1, -1, 65536}}},
		},
	},
	{
		Name:    "sub-zero",
		Doc:     "x - 0  =>  x",
		Pattern: Pat{Op: ir.OpSub, Args: []PatArg{pv("x"), pcv(0)}},
		Widths:  anyWidth(),
		Replace: []RInstr{rop(ir.OpMov, RDst, "x")},
		Gen: GenSpec{
			W:      ir.W32,
			Inputs: map[string]GenIn{"x": {Vals: []int64{42, -9, 100000}}},
		},
	},
	{
		Name: "br-fold",
		Doc: "a conditional branch whose outcome the value ranges decide " +
			"becomes a jump (redundant-compare elimination: a compare dominated " +
			"by an identical decided compare folds through OfOperandAt refinement)",
		Pattern: Pat{Op: ir.OpBr, Args: []PatArg{pv("x"), pv("y")}},
		Widths:  anyWidth(),
		Guards:  []Guard{{Name: "both operand ranges decide the condition", Fn: brDecided}},
		Branch:  foldDecidedBranch,
		Gen: GenSpec{
			W: ir.W32,
			Inputs: map[string]GenIn{
				"x": {Mask: 15, Vals: []int64{3, 9, 15}},
				"y": {Const: true, Vals: []int64{16}},
			},
		},
	},
}

// brDecided reports whether the anchor branch's outcome is decided by the
// operand value ranges under the exact evalBr width semantics: signed
// conditions compare the sign-extended low W bits, unsigned conditions the
// zero-extended low W bits. The ranges bound the raw register values, so the
// fold only applies when every range value is its own W-bit normalization —
// then range-endpoint comparison is sound. The decided direction is stashed
// as "taken".
func brDecided(m *Match) bool {
	ins := m.Ins
	if len(ins.Blk.Succs) != 2 {
		return false
	}
	rx, ry := m.RangeOf("x"), m.RangeOf("y")
	if rx.IsBottom() || ry.IsBottom() {
		return false
	}
	hi := maxSigned(m.W)
	lo := int64(-1) - hi
	cond := ins.Cond
	switch cond {
	case ir.CondULT, ir.CondULE, ir.CondUGT, ir.CondUGE:
		// Zero-extension is the identity only on [0, 2^(W-1)-1]; there the
		// unsigned comparison agrees with its signed counterpart.
		if rx.Lo < 0 || rx.Hi > hi || ry.Lo < 0 || ry.Hi > hi {
			return false
		}
		switch cond {
		case ir.CondULT:
			cond = ir.CondLT
		case ir.CondULE:
			cond = ir.CondLE
		case ir.CondUGT:
			cond = ir.CondGT
		case ir.CondUGE:
			cond = ir.CondGE
		}
	default:
		if rx.Lo < lo || rx.Hi > hi || ry.Lo < lo || ry.Hi > hi {
			return false
		}
	}
	switch {
	case condAlways(cond, rx, ry):
		m.Set("taken", 1)
	case condAlways(cond.Negate(), rx, ry):
		m.Set("taken", 0)
	default:
		return false
	}
	return true
}

// condAlways reports whether cond holds for every (x, y) pair drawn from the
// two ranges (signed semantics; unsigned conditions were translated away).
func condAlways(cond ir.Cond, rx, ry vrangeRange) bool {
	switch cond {
	case ir.CondEQ:
		return rx.Lo == rx.Hi && ry.Lo == ry.Hi && rx.Lo == ry.Lo
	case ir.CondNE:
		return rx.Hi < ry.Lo || ry.Hi < rx.Lo
	case ir.CondLT:
		return rx.Hi < ry.Lo
	case ir.CondLE:
		return rx.Hi <= ry.Lo
	case ir.CondGT:
		return rx.Lo > ry.Hi
	case ir.CondGE:
		return rx.Lo >= ry.Hi
	}
	return false
}

// foldDecidedBranch rewrites the anchor into a jump to the decided
// successor and removes the dead edge. The abandoned block may become
// unreachable; it is left in place, and the interpreter never executes it.
// The deep verifier still checks it, against an empty set of reaching
// definitions, so a dead arm that reads a register defined outside itself
// fails verification and the fold below is reverted.
//
// Removing an edge can, however, sever the only def→use path of a register
// some still-reachable block reads (the definition sat on the arm the
// ranges prove dead). Execution never misses it — that path never runs —
// but the function is then statically malformed and the deep verifier
// rejects it, which in the guarded jit pipeline means a needless fallback.
// The fold is therefore applied tentatively and reverted unless the
// function still verifies.
func foldDecidedBranch(m *Match) bool {
	ins := m.Ins
	b := ins.Blk
	dead := b.Succs[1]
	if m.Get("taken") == 0 {
		dead = b.Succs[0]
	}
	saved := *ins
	savedSuccs := append([]*ir.Block(nil), b.Succs...)
	savedPreds := append([]*ir.Block(nil), dead.Preds...)
	ir.RemoveEdge(b, dead)
	ins.Op = ir.OpJmp
	ins.W = 0
	ins.Cond = 0
	ins.NSrcs = 0
	ins.Srcs = [3]ir.Reg{}
	if guard.VerifyFunc(m.Fn, m.M) != nil {
		*ins = saved
		b.Succs = savedSuccs
		dead.Preds = savedPreds
		return false
	}
	return true
}

// RuleNames returns the table's rule names in table order.
func RuleNames() []string {
	names := make([]string, len(Rules))
	for i := range Rules {
		names[i] = Rules[i].Name
	}
	return names
}

// FindRule returns the named rule, or nil.
func FindRule(name string) *Rule {
	for i := range Rules {
		if Rules[i].Name == name {
			return &Rules[i]
		}
	}
	return nil
}
