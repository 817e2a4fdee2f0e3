package nlp

import (
	"math"
	"sync"
	"testing"

	"absolver/internal/expr"
	"absolver/internal/interval"
)

func atom(t *testing.T, src string) expr.Atom {
	t.Helper()
	a, err := expr.ParseAtom(src, expr.Real)
	if err != nil {
		t.Fatalf("ParseAtom(%q): %v", src, err)
	}
	return a
}

func solveAtoms(t *testing.T, box expr.Box, srcs ...string) Result {
	t.Helper()
	p := &Problem{Box: box}
	for _, s := range srcs {
		p.Atoms = append(p.Atoms, atom(t, s))
	}
	return Solve(p, Options{})
}

func requireFeasible(t *testing.T, r Result, atoms []expr.Atom) {
	t.Helper()
	if r.Status != Feasible {
		t.Fatalf("status = %v, want feasible", r.Status)
	}
	for _, a := range atoms {
		ok, err := a.HoldsTol(r.X, 1e-6)
		if err != nil || !ok {
			t.Fatalf("witness %v violates %v (err=%v)", r.X, a, err)
		}
	}
}

func TestLinearFallthrough(t *testing.T) {
	r := solveAtoms(t, nil, "x + y >= 3", "x - y <= 1")
	if r.Status != Feasible {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestQuadraticFeasible(t *testing.T) {
	p := &Problem{Box: expr.Box{"x": interval.New(-10, 10)}}
	p.Atoms = []expr.Atom{atom(t, "x * x = 4")}
	r := Solve(p, Options{})
	requireFeasible(t, r, p.Atoms)
	if math.Abs(math.Abs(r.X["x"])-2) > 1e-4 {
		t.Fatalf("x = %g, want ±2", r.X["x"])
	}
}

func TestNonlinearUnsatByIntervals(t *testing.T) {
	// The paper's nonlinear_unsat benchmark shape: x² < 0 has no solution.
	p := &Problem{Box: expr.Box{"x": interval.New(-100, 100)}}
	p.Atoms = []expr.Atom{atom(t, "x * x < 0")}
	r := Solve(p, Options{})
	if r.Status != Infeasible {
		t.Fatalf("x² < 0 should be proved infeasible, got %v", r.Status)
	}
}

func TestUnsatConjunction(t *testing.T) {
	// x ≥ 3 ∧ x*x ≤ 4 is infeasible (needs propagation through the square).
	p := &Problem{Box: expr.Box{"x": interval.New(-100, 100)}}
	p.Atoms = []expr.Atom{atom(t, "x >= 3"), atom(t, "x * x <= 4")}
	r := Solve(p, Options{})
	if r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestDivOperator(t *testing.T) {
	// The paper's div_operator benchmark shape: a constraint with /.
	p := &Problem{Box: expr.Box{"x": interval.New(0.1, 100)}}
	p.Atoms = []expr.Atom{atom(t, "1 / x = 4")}
	r := Solve(p, Options{})
	requireFeasible(t, r, p.Atoms)
	if math.Abs(r.X["x"]-0.25) > 1e-4 {
		t.Fatalf("x = %g, want 0.25", r.X["x"])
	}
}

func TestPaperFig2Constraint(t *testing.T) {
	// a·x + 3.5/(4−y) + 2y ≥ 7.1 — the Fig. 2 real constraint is feasible.
	p := &Problem{Box: expr.Box{
		"a": interval.New(-10, 10),
		"x": interval.New(-10, 10),
		"y": interval.New(-10, 3.9),
	}}
	p.Atoms = []expr.Atom{atom(t, "a * x + 3.5 / ( 4 - y ) + 2 * y >= 7.1")}
	r := Solve(p, Options{})
	requireFeasible(t, r, p.Atoms)
}

func TestCircleLineIntersection(t *testing.T) {
	// x² + y² = 25 ∧ x + y = 7 → (3,4) or (4,3).
	p := &Problem{Box: expr.Box{
		"x": interval.New(-10, 10),
		"y": interval.New(-10, 10),
	}}
	p.Atoms = []expr.Atom{
		atom(t, "x * x + y * y = 25"),
		atom(t, "x + y = 7"),
	}
	r := Solve(p, Options{Starts: 60})
	requireFeasible(t, r, p.Atoms)
	s := r.X["x"] + r.X["y"]
	if math.Abs(s-7) > 1e-4 {
		t.Fatalf("x+y = %g", s)
	}
}

func TestCircleLineNoIntersection(t *testing.T) {
	// x² + y² = 1 ∧ x + y = 10 is infeasible; propagation through the
	// circle bounds x,y to [-1,1], where x+y ≤ 2 < 10.
	p := &Problem{Box: expr.Box{
		"x": interval.New(-100, 100),
		"y": interval.New(-100, 100),
	}}
	p.Atoms = []expr.Atom{
		atom(t, "x * x + y * y = 1"),
		atom(t, "x + y = 10"),
	}
	r := Solve(p, Options{})
	if r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestTranscendental(t *testing.T) {
	// sin(x) = 0.5 over [0, π/2].
	p := &Problem{Box: expr.Box{"x": interval.New(0, math.Pi/2)}}
	p.Atoms = []expr.Atom{atom(t, "sin(x) = 0.5")}
	r := Solve(p, Options{})
	requireFeasible(t, r, p.Atoms)
	if math.Abs(r.X["x"]-math.Pi/6) > 1e-3 {
		t.Fatalf("x = %g, want π/6", r.X["x"])
	}
}

func TestTranscendentalUnsat(t *testing.T) {
	p := &Problem{Box: expr.Box{"x": interval.New(-1000, 1000)}}
	p.Atoms = []expr.Atom{atom(t, "sin(x) = 2")}
	r := Solve(p, Options{})
	if r.Status != Infeasible {
		t.Fatalf("sin(x)=2 should be infeasible, got %v", r.Status)
	}
}

func TestExpLog(t *testing.T) {
	p := &Problem{Box: expr.Box{"x": interval.New(-10, 10)}}
	p.Atoms = []expr.Atom{atom(t, "exp(x) = 7.389056098930651")}
	r := Solve(p, Options{})
	requireFeasible(t, r, p.Atoms)
	if math.Abs(r.X["x"]-2) > 1e-3 {
		t.Fatalf("x = %g, want 2", r.X["x"])
	}
}

func TestStrictInequalityMargin(t *testing.T) {
	// x > 0 ∧ x < 1e-9 has solutions but none with the default margin;
	// the solver must not claim a witness that violates strictness.
	p := &Problem{Box: expr.Box{"x": interval.New(-1, 1)}}
	p.Atoms = []expr.Atom{atom(t, "x > 0"), atom(t, "x < 0.000000001")}
	r := Solve(p, Options{})
	if r.Status == Feasible {
		// Acceptable only if the witness genuinely satisfies both strictly.
		if r.X["x"] <= 0 || r.X["x"] >= 1e-9 {
			t.Fatalf("bogus witness %v", r.X)
		}
	}
}

func TestDisequality(t *testing.T) {
	p := &Problem{Box: expr.Box{"x": interval.New(0, 10)}}
	p.Atoms = []expr.Atom{atom(t, "x != 5"), atom(t, "x >= 5"), atom(t, "x <= 5.5")}
	r := Solve(p, Options{})
	requireFeasible(t, r, p.Atoms)
	if math.Abs(r.X["x"]-5) < 1e-7 {
		t.Fatalf("witness hits excluded point: %v", r.X)
	}
}

func TestContractedBoxReported(t *testing.T) {
	p := &Problem{Box: expr.Box{"x": interval.New(-100, 100)}}
	p.Atoms = []expr.Atom{atom(t, "x * x <= 4")}
	r := Solve(p, Options{})
	if r.Status == Infeasible {
		t.Fatal("x² ≤ 4 is feasible")
	}
	bx := r.ContractedBox["x"]
	if bx.Lo < -2.1 || bx.Hi > 2.1 {
		t.Fatalf("propagation failed to contract: %v", bx)
	}
}

func TestUnknownOnHardEquality(t *testing.T) {
	// A system engineered to defeat both engines: equality with zero
	// gradient plateau trap may still be solved, so just assert we never
	// return Infeasible for something feasible.
	p := &Problem{Box: expr.Box{"x": interval.New(-5, 5)}}
	p.Atoms = []expr.Atom{atom(t, "x * x * x - x = 0")}
	r := Solve(p, Options{})
	if r.Status == Infeasible {
		t.Fatal("feasible cubic reported infeasible")
	}
}

func TestEmptyProblem(t *testing.T) {
	r := Solve(&Problem{}, Options{})
	if r.Status != Feasible {
		t.Fatalf("empty conjunction should be feasible, got %v", r.Status)
	}
}

func TestVarsSorted(t *testing.T) {
	p := &Problem{Atoms: []expr.Atom{atom(t, "z + a * b >= 1")}}
	got := p.Vars()
	want := []string{"a", "b", "z"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v", got)
		}
	}
}

func TestSteeringLikeSystem(t *testing.T) {
	// A miniature of the car-steering environment: nonlinear tyre force
	// with sensor ranges; must be found feasible with a verified witness.
	box := expr.Box{
		"yaw":   interval.New(-7, 7),
		"lat":   interval.New(-20, 20),
		"v":     interval.New(-400, 400),
		"delta": interval.New(-1, 1),
	}
	p := &Problem{Box: box}
	p.Atoms = []expr.Atom{
		atom(t, "lat = v * yaw / 10"),
		atom(t, "delta * v * v / 100 - yaw >= 0.5"),
		atom(t, "v >= 30"),
		atom(t, "v <= 50"),
	}
	r := Solve(p, Options{Starts: 80})
	requireFeasible(t, r, p.Atoms)
}

func TestSingularityNudgeStaysInBox(t *testing.T) {
	// The midpoint x = 0 is a pole of 1/x, so the descent nudges every
	// coordinate by 1e-3 — which must not push the point-box y = 3 out of
	// its box, since verification checks the atoms only.
	box := expr.Box{"x": interval.New(-1, 1), "y": interval.New(3, 3)}
	r := solveAtoms(t, box, "1 / x + y >= 0")
	if r.Status != Feasible {
		t.Fatalf("status = %v, want feasible", r.Status)
	}
	for v, iv := range box {
		if !iv.Contains(r.X[v]) {
			t.Fatalf("witness %s = %v outside its box %v", v, r.X[v], iv)
		}
	}
}

func TestVerifyMargins(t *testing.T) {
	env := expr.Env{"x": 1}
	cases := []struct {
		src  string
		want bool
	}{
		{"x <= 1", true},
		{"x <= 1 - 1e-9", true}, // within Tol
		{"x <= 1 - 1e-7", false},
		{"x < 1", false}, // strict: must clear the bound
		{"x < 1 + 1e-6", true},
		{"x > 1 - 4e-7", false},
		{"x != 1 + 4e-7", false}, // ≠: must differ by more than the margin
		{"x != 1 + 1e-6", true},
		{"y >= 0", false}, // unbound variable
	}
	for _, c := range cases {
		if got := Verify([]expr.Atom{atom(t, c.src)}, env, 1e-6, 1e-8); got != c.want {
			t.Errorf("Verify(%s) at x=1 = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestConcurrentSolvesAgree(t *testing.T) {
	// Each solve owns its compiled penalty and scratch vectors, so
	// concurrent solves of one shared problem (as the portfolio runs them)
	// neither race nor perturb each other's trajectories.
	p := &Problem{Box: expr.Box{"x": interval.New(-3, 3), "y": interval.New(-3, 3)}}
	p.Atoms = []expr.Atom{atom(t, "x * x + y * y = 4"), atom(t, "sin(x) * y >= 0.5")}
	want := Solve(p, Options{})
	if want.Status != Feasible {
		t.Fatalf("status = %v, want feasible", want.Status)
	}
	results := make([]Result, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = Solve(p, Options{})
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.Status != want.Status || r.Evals != want.Evals || r.X["x"] != want.X["x"] || r.X["y"] != want.X["y"] {
			t.Errorf("solve %d: %v evals=%d x=%v, want %v evals=%d x=%v", i, r.Status, r.Evals, r.X, want.Status, want.Evals, want.X)
		}
	}
}
