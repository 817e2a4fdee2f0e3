package lp

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// propagateBounds performs iterated bound propagation over the rows: for
// every row Σ aᵢxᵢ ? b and every variable xⱼ in it, the bounds of the
// remaining variables imply a bound on xⱼ, which tightens its domain.
// Returns false when some domain becomes empty — a *proof* of
// infeasibility. Returning true is inconclusive (propagation is not a
// decision procedure); callers fall back to simplex.
//
// It is the map-keyed reference the slot propagator (sparse.propagate)
// must agree with on every refuted/inconclusive answer, as Expr.Eval is
// for the tape.
func propagateBounds(rows []Constraint, lower, upper map[string]float64, rounds int) bool {
	lo := map[string]float64{}
	hi := map[string]float64{}
	for v, b := range lower {
		lo[v] = b
	}
	for v, b := range upper {
		hi[v] = b
	}
	get := func(m map[string]float64, v string, def float64) float64 {
		if x, ok := m[v]; ok {
			return x
		}
		return def
	}
	const tol = 1e-9
	// Per-row variables in sorted order: the tightening sequence and the
	// restLo/restHi floating-point sums must not depend on map iteration
	// order, or propagation results vary run to run on borderline systems.
	rowVars := make([][]string, len(rows))
	for i, r := range rows {
		vs := make([]string, 0, len(r.Coeffs))
		for v := range r.Coeffs {
			vs = append(vs, v)
		}
		sort.Strings(vs)
		rowVars[i] = vs
	}
	for round := 0; round < rounds; round++ {
		changed := false
		for ri, r := range rows {
			// Row as Σ aᵢxᵢ ≤ bU and/or Σ aᵢxᵢ ≥ bL.
			var bU, bL float64
			var hasU, hasL bool
			switch r.Rel {
			case LE:
				bU, hasU = r.RHS, true
			case GE:
				bL, hasL = r.RHS, true
			case EQ:
				bU, bL, hasU, hasL = r.RHS, r.RHS, true, true
			}
			for _, v := range rowVars[ri] {
				a := r.Coeffs[v]
				if a == 0 {
					continue
				}
				// Bounds on Σ_{w≠v} a_w x_w.
				restLo, restHi := 0.0, 0.0
				for _, w := range rowVars[ri] {
					aw := r.Coeffs[w]
					if w == v || aw == 0 {
						continue
					}
					wl := get(lo, w, math.Inf(-1))
					wh := get(hi, w, math.Inf(1))
					if aw > 0 {
						restLo += aw * wl
						restHi += aw * wh
					} else {
						restLo += aw * wh
						restHi += aw * wl
					}
				}
				// a·x ≤ bU − restLo  and  a·x ≥ bL − restHi.
				if hasU && !math.IsInf(restLo, 0) {
					bound := bU - restLo
					if a > 0 {
						nb := bound / a
						if nb < get(hi, v, math.Inf(1))-tol {
							hi[v] = nb
							changed = true
						}
					} else {
						nb := bound / a
						if nb > get(lo, v, math.Inf(-1))+tol {
							lo[v] = nb
							changed = true
						}
					}
				}
				if hasL && !math.IsInf(restHi, 0) {
					bound := bL - restHi
					if a > 0 {
						nb := bound / a
						if nb > get(lo, v, math.Inf(-1))+tol {
							lo[v] = nb
							changed = true
						}
					} else {
						nb := bound / a
						if nb < get(hi, v, math.Inf(1))-tol {
							hi[v] = nb
							changed = true
						}
					}
				}
				if get(lo, v, math.Inf(-1)) > get(hi, v, math.Inf(1))+FeasTol {
					return false
				}
			}
		}
		if !changed {
			return true
		}
	}
	return true
}

// randomSystem builds a small bounded system over three variables with
// integer coefficients and right-hand sides, so that propagation and
// simplex tolerances never meet a borderline case.
func randomSystem(rng *rand.Rand) *Problem {
	vars := []string{"a", "b", "c"}
	p := NewProblem()
	for _, v := range vars {
		lo := float64(rng.Intn(11) - 5)
		p.SetBounds(v, lo, lo+float64(rng.Intn(11)))
	}
	for i := 0; i < 1+rng.Intn(8); i++ {
		coeffs := map[string]float64{}
		for _, v := range vars {
			if rng.Intn(2) == 0 {
				coeffs[v] = float64(rng.Intn(7) - 3)
			}
		}
		p.AddConstraint(coeffs, []Rel{LE, GE, EQ}[rng.Intn(3)], float64(rng.Intn(17)-8))
	}
	return p
}

// checkConflict asserts the properties of a conflict Check returned for p:
// the rows are infeasible on their own, and irreducible against their
// oracle — dropping any row leaves propagation inconclusive when
// propagation refuted p, and makes the LP feasible otherwise.
func checkConflict(t *testing.T, p *Problem, conflict []int) {
	t.Helper()
	sub := func(drop int) *Problem {
		q := NewProblem()
		q.Lower, q.Upper = p.Lower, p.Upper
		for j, i := range conflict {
			if j != drop {
				q.Constraints = append(q.Constraints, p.Constraints[i])
			}
		}
		return q
	}
	if st := sub(-1).Solve().Status; st != Infeasible {
		t.Fatalf("conflict %v of %v is %v on its own", conflict, p.Constraints, st)
	}
	s := compile(p)
	byPropagation := s.propagate(p, allRows(p)) != nil
	for drop := range conflict {
		q := sub(drop)
		if byPropagation && compile(q).propagate(q, allRows(q)) != nil {
			t.Fatalf("propagation conflict %v of %v reducible by row %d", conflict, p.Constraints, conflict[drop])
		}
		if !byPropagation && q.Solve().Status == Infeasible {
			t.Fatalf("Farkas conflict %v of %v reducible by row %d", conflict, p.Constraints, conflict[drop])
		}
	}
}

// TestQuickConflictIrreducible: every conflict Check returns is infeasible
// by simplex alone and irreducible against its oracle.
func TestQuickConflictIrreducible(t *testing.T) {
	conflicts := 0
	f := func(seed int64) bool {
		p := randomSystem(rand.New(rand.NewSource(seed)))
		res, conflict := p.Check(context.Background(), 0)
		if res.Status == Infeasible {
			conflicts++
			checkConflict(t, p, conflict)
		}
		return res.Status == p.Solve().Status
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if conflicts < 50 {
		t.Fatalf("only %d of 500 systems infeasible", conflicts)
	}
}

// TestQuickPropagatorMatchesReference: the slot propagator refutes exactly
// the systems the map-keyed reference refutes, on real-valued data too.
func TestQuickPropagatorMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomSystem(rng)
		if rng.Intn(2) == 0 {
			for _, c := range p.Constraints {
				for v := range c.Coeffs {
					c.Coeffs[v] = rng.Float64()*4 - 2
				}
			}
			p.Upper["a"] = p.Lower["a"] + rng.Float64()*1e-6
		}
		refuted := compile(p).propagate(p, allRows(p)) != nil
		return refuted == !propagateBounds(p.Constraints, p.Lower, p.Upper, propagationRounds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestFarkasConflict pins the simplex path: x − y = 1 and y ≥ 0.999x force
// x ≥ 1000, which the unit row x ≤ 200 contradicts, but propagation only
// creeps towards the crossing by about 2 per round. The Farkas support
// names rows 0 and 1; presolve maps x's upper bound back to row 2 (and
// its lower bound to row 3, which the filter drops). Marking x integer
// takes the branch-and-bound path to the same conflict.
func TestFarkasConflict(t *testing.T) {
	p := NewProblem()
	p.AddConstraint(map[string]float64{"x": 1, "y": -1}, EQ, 1)     // 0
	p.AddConstraint(map[string]float64{"y": 1, "x": -0.999}, GE, 0) // 1
	p.AddConstraint(map[string]float64{"x": 1}, LE, 200)            // 2
	p.AddConstraint(map[string]float64{"x": 1}, GE, 0)              // 3
	p.AddConstraint(map[string]float64{"z": 1}, LE, 5)              // 4
	p.AddConstraint(map[string]float64{"z": 1, "w": 1}, GE, 3)      // 5
	if s := compile(p); s.propagate(p, allRows(p)) != nil {
		t.Fatal("propagation refuted the system; the test needs one it cannot")
	}
	res, cand := p.solve(context.Background(), true)
	if res.Status != Infeasible || !reflect.DeepEqual(cand, []int{0, 1, 2, 3}) {
		t.Fatalf("solve = %v with candidates %v, want infeasible with [0 1 2 3]", res.Status, cand)
	}
	for _, integer := range []bool{false, true} {
		if integer {
			p.MarkInteger("x")
		}
		res, conflict := p.Check(context.Background(), 0)
		if res.Status != Infeasible || !reflect.DeepEqual(conflict, []int{0, 1, 2}) {
			t.Fatalf("Check (integer %v) = %v with conflict %v, want infeasible with [0 1 2]", integer, res.Status, conflict)
		}
		checkConflict(t, p, conflict)
	}
}

// TestIntegralityConflictBlocksAllRows: when the relaxation is feasible
// (x − y = 0.5 over [0,3]²) but no integral point is, every row is the
// conflict.
func TestIntegralityConflictBlocksAllRows(t *testing.T) {
	p := NewProblem()
	p.AddConstraint(map[string]float64{"x": 1, "y": -1}, EQ, 0.5)
	p.AddConstraint(map[string]float64{"z": 1}, LE, 5)
	p.SetBounds("x", 0, 3)
	p.SetBounds("y", 0, 3)
	p.MarkInteger("x")
	p.MarkInteger("y")
	res, conflict := p.Check(context.Background(), 0)
	if res.Status != Infeasible || !reflect.DeepEqual(conflict, []int{0, 1}) {
		t.Fatalf("Check = %v with conflict %v, want infeasible with [0 1]", res.Status, conflict)
	}
}

// FuzzLinearConflict decodes bytes into a small bounded system and checks
// that a propagation refutation implies simplex infeasibility, and that
// every conflict Check returns is infeasible and irreducible.
func FuzzLinearConflict(f *testing.F) {
	f.Add([]byte{0x13, 0x80, 0x42, 0x07, 0xff, 0x10, 0x33, 0x91, 0x05})
	f.Add([]byte{0x01, 0x22, 0x63, 0x0c, 0x7e, 0x81, 0x54, 0xa0, 0x3f, 0x12, 0x90, 0x6d, 0x02})
	f.Add([]byte{0x50, 0x50, 0x05, 0x05, 0x33, 0x44, 0x12, 0x21, 0x88, 0x88, 0x17, 0x71})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		vars := []string{"a", "b", "c"}
		p := NewProblem()
		for _, v := range vars {
			lo := float64(next()%11 - 5)
			p.SetBounds(v, lo, lo+float64(next()%11))
		}
		for len(data) > 0 && len(p.Constraints) < 8 {
			coeffs := map[string]float64{}
			for _, v := range vars {
				coeffs[v] = float64(next()%7 - 3)
			}
			b := next()
			p.AddConstraint(coeffs, Rel(b%3), float64(b/3%17-8))
		}
		if s := compile(p); s.propagate(p, allRows(p)) != nil && p.Solve().Status != Infeasible {
			t.Fatalf("propagation refuted %v, simplex disagrees", p.Constraints)
		}
		if res, conflict := p.Check(context.Background(), 0); res.Status == Infeasible {
			checkConflict(t, p, conflict)
		}
	})
}
