package polyar

import (
	"context"
	"math"
	"testing"

	"absolver/internal/expr"
	"absolver/internal/interval"
	"absolver/internal/nlp"
)

func box2(xlo, xhi, ylo, yhi float64) expr.Box {
	return expr.Box{
		"x": interval.Interval{Lo: xlo, Hi: xhi},
		"y": interval.Interval{Lo: ylo, Hi: yhi},
	}
}

func mustSat(t *testing.T, atoms []expr.Atom, box expr.Box, ints map[string]bool) expr.Env {
	t.Helper()
	res := Solve(context.Background(), atoms, box, ints, Options{})
	if res.Status != nlp.Feasible {
		t.Fatalf("Solve = %v (stats %+v), want Feasible", res.Status, res.Stats)
	}
	for _, a := range atoms {
		ok, err := a.HoldsTol(res.X, 1e-9)
		if err != nil || !ok {
			t.Fatalf("witness %v violates %v (err %v)", res.X, a, err)
		}
	}
	return res.X
}

func mustUnsat(t *testing.T, atoms []expr.Atom, box expr.Box, ints map[string]bool) {
	t.Helper()
	res := Solve(context.Background(), atoms, box, ints, Options{})
	if res.Status != nlp.Infeasible {
		t.Fatalf("Solve = %v (stats %+v), want Infeasible", res.Status, res.Stats)
	}
}

func TestSolveCircleLineSat(t *testing.T) {
	// x² + y² ≤ 4  ∧  x + y ≥ 1: a fat intersection.
	atoms := []expr.Atom{
		{LHS: expr.Add(expr.Mul(expr.V("x"), expr.V("x")), expr.Mul(expr.V("y"), expr.V("y"))), Op: expr.CmpLE, RHS: expr.C(4)},
		{LHS: expr.Add(expr.V("x"), expr.V("y")), Op: expr.CmpGE, RHS: expr.C(1)},
	}
	mustSat(t, atoms, box2(-2, 2, -2, 2), nil)
}

func TestSolveCircleLineUnsat(t *testing.T) {
	// x² + y² ≤ 1  ∧  x + y ≥ 3: the line misses the disc entirely.
	atoms := []expr.Atom{
		{LHS: expr.Add(expr.Mul(expr.V("x"), expr.V("x")), expr.Mul(expr.V("y"), expr.V("y"))), Op: expr.CmpLE, RHS: expr.C(1)},
		{LHS: expr.Add(expr.V("x"), expr.V("y")), Op: expr.CmpGE, RHS: expr.C(3)},
	}
	mustUnsat(t, atoms, box2(-2, 2, -2, 2), nil)
}

func TestSolveBilinearUnsat(t *testing.T) {
	// x·y ≥ 2 over [0,1]×[0,1] is impossible (max product 1).
	atoms := []expr.Atom{
		{LHS: expr.Mul(expr.V("x"), expr.V("y")), Op: expr.CmpGE, RHS: expr.C(2)},
	}
	mustUnsat(t, atoms, box2(0, 1, 0, 1), nil)
}

func TestSolveBilinearSat(t *testing.T) {
	// x·y ≥ 2 ∧ x ≤ 2 ∧ y ≤ 2 over [0,4]²: needs a genuinely bilinear witness.
	atoms := []expr.Atom{
		{LHS: expr.Mul(expr.V("x"), expr.V("y")), Op: expr.CmpGE, RHS: expr.C(2)},
		{LHS: expr.V("x"), Op: expr.CmpLE, RHS: expr.C(2)},
		{LHS: expr.V("y"), Op: expr.CmpLE, RHS: expr.C(2)},
	}
	mustSat(t, atoms, box2(0, 4, 0, 4), nil)
}

func TestSolveTranscendental(t *testing.T) {
	// sin(x) ≥ 0.5 over [0, π]: pure range reasoning plus bisection.
	atoms := []expr.Atom{
		{LHS: expr.Sin(expr.V("x")), Op: expr.CmpGE, RHS: expr.C(0.5)},
	}
	box := expr.Box{"x": interval.Interval{Lo: 0, Hi: math.Pi}}
	mustSat(t, atoms, box, nil)

	// sin(x) ≥ 1.5 is impossible anywhere.
	atoms[0].RHS = expr.C(1.5)
	mustUnsat(t, atoms, box, nil)
}

func TestSolveExpUnsat(t *testing.T) {
	// exp(x) ≤ x over [-5, 5]: e^x > x everywhere.
	atoms := []expr.Atom{
		{LHS: expr.Exp(expr.V("x")), Op: expr.CmpLE, RHS: expr.V("x")},
	}
	box := expr.Box{"x": interval.Interval{Lo: -5, Hi: 5}}
	mustUnsat(t, atoms, box, nil)
}

func TestSolveMixedInt(t *testing.T) {
	ints := map[string]bool{"m": true, "n": true}
	mbox := expr.Box{
		"m": interval.Interval{Lo: 0, Hi: 4},
		"n": interval.Interval{Lo: 0, Hi: 4},
	}
	// m·n ≥ 6 ∧ m + n ≤ 5: (2,3) works.
	atoms := []expr.Atom{
		{LHS: expr.Mul(expr.V("m"), expr.V("n")), Op: expr.CmpGE, RHS: expr.C(6), Domain: expr.Int},
		{LHS: expr.Add(expr.V("m"), expr.V("n")), Op: expr.CmpLE, RHS: expr.C(5), Domain: expr.Int},
	}
	w := mustSat(t, atoms, mbox, ints)
	for v, val := range w {
		if val != math.Trunc(val) {
			t.Fatalf("integer var %s got non-integral %v", v, val)
		}
	}

	// m·n ≥ 6 ∧ m + n ≤ 4: no integral pair fits (2·2=4).
	atoms[1].RHS = expr.C(4)
	mustUnsat(t, atoms, mbox, ints)
}

func TestSolveStrictAndNE(t *testing.T) {
	// x² < 1 ∧ x ≠ 0: witness needs margin off both bounds.
	atoms := []expr.Atom{
		{LHS: expr.Mul(expr.V("x"), expr.V("x")), Op: expr.CmpLT, RHS: expr.C(1)},
		{LHS: expr.V("x"), Op: expr.CmpNE, RHS: expr.C(0)},
	}
	box := expr.Box{"x": interval.Interval{Lo: -1, Hi: 1}}
	mustSat(t, atoms, box, nil)
}

func TestSolveBudgetedUnknown(t *testing.T) {
	// A thin feasible shell the tiny budget cannot resolve: the verdict
	// must degrade to Unknown, never to a wrong Infeasible.
	atoms := []expr.Atom{
		{LHS: expr.Add(expr.Mul(expr.V("x"), expr.V("x")), expr.Mul(expr.V("y"), expr.V("y"))), Op: expr.CmpEQ, RHS: expr.C(2)},
	}
	res := Solve(context.Background(), atoms, box2(-2, 2, -2, 2), nil, Options{MaxRegions: 2})
	if res.Status == nlp.Infeasible {
		t.Fatalf("budgeted Solve claimed Infeasible on a satisfiable system (stats %+v)", res.Stats)
	}
	if res.Stats.Regions == 0 || res.Stats.Regions > 2 {
		t.Fatalf("budget not honoured: %+v", res.Stats)
	}
}

func TestSolveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	atoms := []expr.Atom{
		{LHS: expr.Mul(expr.V("x"), expr.V("y")), Op: expr.CmpGE, RHS: expr.C(2)},
	}
	res := Solve(ctx, atoms, box2(0, 1, 0, 1), nil, Options{})
	if res.Status != nlp.Unknown {
		t.Fatalf("cancelled Solve = %v, want Unknown", res.Status)
	}
}

func TestSolveUnboundedVarDegradesUnsatToUnknown(t *testing.T) {
	// x² ≥ 1e6 with x unbounded IS satisfiable far out (|x| ≥ 1000); over
	// the search box clamped to ±nlp.DefaultRange the solver must not claim
	// Infeasible.
	atoms := []expr.Atom{
		{LHS: expr.Mul(expr.V("x"), expr.V("x")), Op: expr.CmpGE, RHS: expr.C(1e6)},
	}
	res := Solve(context.Background(), atoms, expr.Box{}, nil, Options{})
	if res.Status == nlp.Infeasible {
		t.Fatalf("clamped Solve claimed Infeasible; clamping forfeits refutation")
	}
}

func TestSolveDeterministic(t *testing.T) {
	atoms := []expr.Atom{
		{LHS: expr.Add(expr.Mul(expr.V("x"), expr.V("x")), expr.Mul(expr.V("y"), expr.V("y"))), Op: expr.CmpLE, RHS: expr.C(4)},
		{LHS: expr.Mul(expr.V("x"), expr.V("y")), Op: expr.CmpGE, RHS: expr.C(1)},
	}
	box := box2(-2, 2, -2, 2)
	first := Solve(context.Background(), atoms, box, nil, Options{Workers: 8})
	for i := 0; i < 5; i++ {
		again := Solve(context.Background(), atoms, box, nil, Options{Workers: 8})
		if again.Status != first.Status || again.Stats != first.Stats {
			t.Fatalf("run %d diverged: %v/%+v vs %v/%+v", i, again.Status, again.Stats, first.Status, first.Stats)
		}
		for k, v := range first.X {
			if again.X[k] != v {
				t.Fatalf("run %d witness diverged on %s: %v vs %v", i, k, again.X[k], v)
			}
		}
	}
}
