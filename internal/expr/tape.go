package expr

import "math"

// tapeOp is one instruction of a compiled Tape.
type tapeOp uint8

const (
	tConst tapeOp = iota
	tVar
	tNeg
	tAdd
	tSub
	tMul
	tDiv
	tSin
	tCos
	tExp
	tLog
	tSqrt
	tAbs
	// tFail makes Eval fail: an unbound variable, or an operator or
	// function Expr.Eval does not know.
	tFail
)

// instr is a tape instruction: the constant of tConst, the slot of tVar.
type instr struct {
	op   tapeOp
	slot int32
	c    float64
}

// Tape is an expression compiled to a flat postfix program over variable
// slots: the point evaluator of hot loops that evaluate one expression at
// many points. Expr.Eval stays the reference semantics; a Tape performs
// exactly its float operations in the same order, so both give
// bit-identical values, and Tape.Eval fails exactly where Expr.Eval
// returns an error.
type Tape struct {
	code  []instr
	depth int
}

// Compile compiles e against a variable-to-slot map. A variable missing
// from slot compiles to an instruction that fails, mirroring Eval's
// ErrUnbound.
func Compile(e Expr, slot map[string]int) *Tape {
	t := &Tape{}
	t.emit(e, slot, 0)
	return t
}

// Depth is the stack length Eval needs to run without allocating.
func (t *Tape) Depth() int { return t.depth }

// emit appends e's postfix code; sp is the stack height before e runs.
func (t *Tape) emit(e Expr, slot map[string]int, sp int) {
	if sp+1 > t.depth {
		t.depth = sp + 1
	}
	switch n := e.(type) {
	case Const:
		t.code = append(t.code, instr{op: tConst, c: n.V})
	case Var:
		if s, ok := slot[n.Name]; ok {
			t.code = append(t.code, instr{op: tVar, slot: int32(s)})
		} else {
			t.code = append(t.code, instr{op: tFail})
		}
	case Neg:
		t.emit(n.X, slot, sp)
		t.code = append(t.code, instr{op: tNeg})
	case Bin:
		t.emit(n.L, slot, sp)
		t.emit(n.R, slot, sp+1)
		op := tFail
		switch n.Op {
		case OpAdd:
			op = tAdd
		case OpSub:
			op = tSub
		case OpMul:
			op = tMul
		case OpDiv:
			op = tDiv
		}
		t.code = append(t.code, instr{op: op})
	case Call:
		t.emit(n.Arg, slot, sp)
		op := tFail
		switch n.Fn {
		case FuncSin:
			op = tSin
		case FuncCos:
			op = tCos
		case FuncExp:
			op = tExp
		case FuncLog:
			op = tLog
		case FuncSqrt:
			op = tSqrt
		case FuncAbs:
			op = tAbs
		}
		t.code = append(t.code, instr{op: op})
	default:
		t.code = append(t.code, instr{op: tFail})
	}
}

// Eval runs the tape with variable values x, indexed by slot, using stack
// as scratch (allocating only if it is shorter than Depth). ok is false
// exactly where Expr.Eval returns an error: division by zero, log of a
// value ≤ 0, sqrt of a negative value, or an unbound variable.
func (t *Tape) Eval(x, stack []float64) (float64, bool) {
	if len(stack) < t.depth {
		stack = make([]float64, t.depth)
	}
	sp := 0
	for _, in := range t.code {
		switch in.op {
		case tConst:
			stack[sp] = in.c
			sp++
		case tVar:
			stack[sp] = x[in.slot]
			sp++
		case tNeg:
			stack[sp-1] = -stack[sp-1]
		case tAdd:
			sp--
			stack[sp-1] += stack[sp]
		case tSub:
			sp--
			stack[sp-1] -= stack[sp]
		case tMul:
			sp--
			stack[sp-1] *= stack[sp]
		case tDiv:
			sp--
			if stack[sp] == 0 {
				return 0, false
			}
			stack[sp-1] /= stack[sp]
		case tSin:
			stack[sp-1] = math.Sin(stack[sp-1])
		case tCos:
			stack[sp-1] = math.Cos(stack[sp-1])
		case tExp:
			stack[sp-1] = math.Exp(stack[sp-1])
		case tLog:
			if stack[sp-1] <= 0 {
				return 0, false
			}
			stack[sp-1] = math.Log(stack[sp-1])
		case tSqrt:
			if stack[sp-1] < 0 {
				return 0, false
			}
			stack[sp-1] = math.Sqrt(stack[sp-1])
		case tAbs:
			stack[sp-1] = math.Abs(stack[sp-1])
		default:
			return 0, false
		}
	}
	return stack[0], true
}
