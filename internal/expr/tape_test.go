package expr

import (
	"math"
	"math/rand"
	"testing"
)

// tapeConsts are the leaf constants tapeProgram draws from: signed zeros
// for division and sign edge cases, -1 for sqrt, and ordinary values.
var tapeConsts = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 2, 3.25, -7}

// tapeProgram decodes a byte program into an expression over the bound
// variables x, y and the unbound variable u. Each byte picks a node by
// b%8 and a variant by b/8:
//
//	0 constant tapeConsts[b/8]   4 Neg
//	1 x   2 y   3 u (unbound)     5 Bin, Op(b/8 % 5) — 4 is not an Op
//	6 Call, Func(b/8 % 7) — 6 is not a Func   7 the fuzzed constant c
//
// Nodes below maxDepth, or past the program's end, are the leaf x.
func tapeProgram(prog []byte, c float64) Expr {
	pos := 0
	var build func(depth int) Expr
	build = func(depth int) Expr {
		if pos >= len(prog) || depth >= 12 {
			return V("x")
		}
		b := prog[pos]
		pos++
		sel := int(b / 8)
		switch b % 8 {
		case 0:
			return C(tapeConsts[sel%len(tapeConsts)])
		case 1:
			return V("x")
		case 2:
			return V("y")
		case 3:
			return V("u")
		case 4:
			return Neg{build(depth + 1)}
		case 5:
			l := build(depth + 1)
			return Bin{Op(sel % 5), l, build(depth + 1)}
		case 6:
			return Call{Func(sel % 7), build(depth + 1)}
		}
		return C(c)
	}
	return build(0)
}

// checkTape asserts that e's tape agrees with e.Eval bit for bit at (x, y).
// A NaN result need only be NaN on both sides: Go leaves the sign and
// payload of a NaN produced by arithmetic unspecified, and the compiler
// may commute the operands of + and *, which picks which input NaN's bits
// survive.
func checkTape(t *testing.T, e Expr, x, y float64) {
	t.Helper()
	tape := Compile(e, map[string]int{"x": 0, "y": 1})
	want, err := e.Eval(Env{"x": x, "y": y})
	got, ok := tape.Eval([]float64{x, y}, make([]float64, tape.Depth()))
	if ok != (err == nil) {
		t.Fatalf("%s at x=%v y=%v: tape ok=%v, Eval err=%v", String(e), x, y, ok, err)
	}
	if ok && math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("%s at x=%v y=%v: tape %v (%#x), Eval %v (%#x)",
			String(e), x, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// FuzzTapeEval: a compiled tape computes Expr.Eval's value bit for bit and
// fails exactly where Eval errors, over every operator and function.
func FuzzTapeEval(f *testing.F) {
	f.Add([]byte{5 + 8*3, 1, 0}, 1.0, 2.0, 0.0)       // x / 0
	f.Add([]byte{6 + 8*3, 0}, 1.0, 2.0, 0.0)          // log(0)
	f.Add([]byte{6 + 8*4, 0 + 8*3}, 1.0, 2.0, 0.0)    // sqrt(-1)
	f.Add([]byte{4, 0}, 1.0, 2.0, 0.0)                // -(0)
	f.Add([]byte{0 + 8*1}, 1.0, 2.0, 0.0)             // -0
	f.Add([]byte{5 + 8*2, 0 + 8*1, 2}, 1.0, 2.0, 0.0) // -0 * y
	f.Add([]byte{5, 1, 3}, 1.0, 2.0, 0.0)             // x + u
	f.Add([]byte{6 + 8*2, 5 + 8*3, 7, 1}, 0.0, -3.0, 5.0)
	f.Fuzz(func(t *testing.T, prog []byte, x, y, c float64) {
		checkTape(t, tapeProgram(prog, c), x, y)
	})
}

// TestTapeEvalRandom runs FuzzTapeEval's check over seeded random programs
// and points, so the ordinary test run covers more than the seed corpus.
func TestTapeEvalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 2, math.Inf(1), math.Inf(-1), math.NaN()}
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return pts[rng.Intn(len(pts))]
		}
		return rng.Float64()*20 - 10
	}
	for i := 0; i < 5000; i++ {
		prog := make([]byte, 1+rng.Intn(24))
		rng.Read(prog)
		checkTape(t, tapeProgram(prog, pick()), pick(), pick())
	}
}

// TestTapeStackReuse: Eval with a short or nil stack still computes the
// right value, and a tape compiled once evaluates at many points.
func TestTapeStackReuse(t *testing.T) {
	e, err := Parse("x * y + sin(x) / (y - 1)")
	if err != nil {
		t.Fatal(err)
	}
	tape := Compile(e, map[string]int{"x": 0, "y": 1})
	stack := make([]float64, tape.Depth())
	for _, p := range [][2]float64{{0, 0}, {1.5, -2}, {3, 4}} {
		want, _ := e.Eval(Env{"x": p[0], "y": p[1]})
		for _, s := range [][]float64{stack, nil} {
			got, ok := tape.Eval(p[:], s)
			if !ok || got != want {
				t.Fatalf("at %v: tape %v ok=%v, want %v", p, got, ok, want)
			}
		}
	}
	if _, ok := tape.Eval([]float64{0, 1}, stack); ok {
		t.Fatal("division by y-1 = 0 must fail")
	}
}
