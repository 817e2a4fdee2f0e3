// Package lp implements the linear-constraint solving substrate standing in
// for COIN in the paper: feasibility checking and optimisation of systems of
// linear (in)equalities by two-phase primal simplex, extraction of an
// irreducible infeasible subset (the paper's "smallest conflicting subset
// ... returned as a hint for further queries to the SAT-solver"), and
// branch-and-bound for problems with integer variables (the Sudoku
// encoding's "more involved integer programming sub-problems").
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Rel is the relation of a linear constraint. Strict inequalities are not
// represented here: callers relax l < r to l ≤ r − ε (see Epsilon).
type Rel int

// Constraint relations.
const (
	LE Rel = iota // Σ aᵢxᵢ ≤ b
	GE            // Σ aᵢxᵢ ≥ b
	EQ            // Σ aᵢxᵢ = b
)

// String returns the relation's source form.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Epsilon is the default relaxation used when converting strict
// inequalities to weak ones (l < r becomes l ≤ r − Epsilon for real
// variables). It is exported so that the engine and its tests agree on the
// tolerance.
const Epsilon = 1e-6

// FeasTol is the feasibility tolerance of the simplex and of solution
// verification.
const FeasTol = 1e-7

// Status is the outcome of a solve.
type Status int

// Solve outcomes. Canceled is reported when the context passed to
// SolveContext / SolveMIPContext is cancelled before a verdict: the partial
// search proves nothing, so callers must treat it like an indeterminate
// result and surface ctx.Err().
const (
	Feasible Status = iota
	Infeasible
	Unbounded
	IterLimit
	Canceled
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// ErrIterLimit is returned when simplex exceeds its iteration budget.
var ErrIterLimit = errors.New("lp: simplex iteration limit exceeded")

// Constraint is one linear row Σ Coeffs[v]·v Rel RHS. The Tag is free for
// callers (ABsolver stores the Boolean literal the row came from, so the
// IIS maps straight back to a conflict clause).
type Constraint struct {
	Coeffs map[string]float64
	Rel    Rel
	RHS    float64
	Tag    int
}

// Clone deep-copies the constraint.
func (c Constraint) Clone() Constraint {
	m := make(map[string]float64, len(c.Coeffs))
	for k, v := range c.Coeffs {
		m[k] = v
	}
	return Constraint{Coeffs: m, Rel: c.Rel, RHS: c.RHS, Tag: c.Tag}
}

// String renders the row.
func (c Constraint) String() string {
	vars := make([]string, 0, len(c.Coeffs))
	for v := range c.Coeffs {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	s := ""
	for i, v := range vars {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%g*%s", c.Coeffs[v], v)
	}
	if s == "" {
		s = "0"
	}
	return fmt.Sprintf("%s %s %g", s, c.Rel, c.RHS)
}

// Eval computes the row's left-hand side under x (absent variables count 0).
// Terms are summed in sorted variable order so borderline tolerance checks
// (Satisfied, Verify) cannot flip with map iteration order.
func (c Constraint) Eval(x map[string]float64) float64 {
	vars := make([]string, 0, len(c.Coeffs))
	for v := range c.Coeffs {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	s := 0.0
	for _, v := range vars {
		s += c.Coeffs[v] * x[v]
	}
	return s
}

// Satisfied reports whether x satisfies the row within FeasTol.
func (c Constraint) Satisfied(x map[string]float64) bool {
	lhs := c.Eval(x)
	switch c.Rel {
	case LE:
		return lhs <= c.RHS+FeasTol
	case GE:
		return lhs >= c.RHS-FeasTol
	case EQ:
		return math.Abs(lhs-c.RHS) <= FeasTol
	}
	return false
}

// Problem is a linear feasibility/optimisation problem. Variables are
// identified by name; all variables are free (−∞, +∞) unless bounds are set.
type Problem struct {
	Constraints []Constraint
	// Integer marks variables that must take integer values; they are
	// handled by branch-and-bound in SolveMIP.
	Integer map[string]bool
	// Objective, when non-nil, is minimised in phase 2 (map of coefficient
	// by variable). Nil means pure feasibility.
	Objective map[string]float64
	// lower/upper variable bounds (absent = unbounded on that side).
	Lower map[string]float64
	Upper map[string]float64
	// MaxIter bounds simplex pivots per phase; 0 means a generous default.
	MaxIter int
}

// NewProblem returns an empty problem.
func NewProblem() *Problem {
	return &Problem{
		Integer: make(map[string]bool),
		Lower:   make(map[string]float64),
		Upper:   make(map[string]float64),
	}
}

// Clone deep-copies the problem.
func (p *Problem) Clone() *Problem {
	q := NewProblem()
	q.Constraints = make([]Constraint, len(p.Constraints))
	for i, c := range p.Constraints {
		q.Constraints[i] = c.Clone()
	}
	for k, v := range p.Integer {
		q.Integer[k] = v
	}
	if p.Objective != nil {
		q.Objective = make(map[string]float64, len(p.Objective))
		for k, v := range p.Objective {
			q.Objective[k] = v
		}
	}
	for k, v := range p.Lower {
		q.Lower[k] = v
	}
	for k, v := range p.Upper {
		q.Upper[k] = v
	}
	q.MaxIter = p.MaxIter
	return q
}

// AddConstraint appends a row and returns its index.
func (p *Problem) AddConstraint(coeffs map[string]float64, rel Rel, rhs float64) int {
	c := Constraint{Coeffs: coeffs, Rel: rel, RHS: rhs, Tag: len(p.Constraints)}
	p.Constraints = append(p.Constraints, c)
	return len(p.Constraints) - 1
}

// AddRow appends a fully-formed row, preserving the caller's Tag (unlike
// AddConstraint, which overwrites it with the row index). Callers that
// map rows back to their own structures — internal/polyar tags relaxation
// rows with source-atom indexes — use this to keep that mapping through
// IIS extraction.
func (p *Problem) AddRow(c Constraint) int {
	p.Constraints = append(p.Constraints, c)
	return len(p.Constraints) - 1
}

// SetBounds sets lo ≤ v ≤ hi. Use math.Inf for one-sided bounds.
func (p *Problem) SetBounds(v string, lo, hi float64) {
	if !math.IsInf(lo, -1) {
		p.Lower[v] = lo
	} else {
		delete(p.Lower, v)
	}
	if !math.IsInf(hi, 1) {
		p.Upper[v] = hi
	} else {
		delete(p.Upper, v)
	}
}

// MarkInteger declares v integer-valued.
func (p *Problem) MarkInteger(v string) { p.Integer[v] = true }

// Vars returns the sorted set of variables mentioned anywhere in the
// problem.
func (p *Problem) Vars() []string {
	set := map[string]struct{}{}
	for _, c := range p.Constraints {
		for v := range c.Coeffs {
			set[v] = struct{}{}
		}
	}
	for v := range p.Lower {
		set[v] = struct{}{}
	}
	for v := range p.Upper {
		set[v] = struct{}{}
	}
	for v := range p.Objective {
		set[v] = struct{}{}
	}
	for v := range p.Integer {
		set[v] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Result carries a solve outcome.
type Result struct {
	Status Status
	// X is a satisfying (or optimal) point when Status == Feasible.
	X map[string]float64
	// Objective value at X when an objective was set.
	Objective float64
	// Pivots is the total number of simplex pivots performed.
	Pivots int
}

// Solve checks feasibility of the relaxation (ignoring integrality) and, if
// an objective is set, optimises it. Use SolveMIP to honour Integer marks.
// A presolve pass absorbs single-variable rows into bounds first; only the
// residual multi-variable rows reach the simplex.
func (p *Problem) Solve() Result {
	return p.SolveContext(context.Background())
}

// SolveContext is Solve with cooperative cancellation: the simplex polls
// ctx between pivots and returns Status Canceled once it is done.
func (p *Problem) SolveContext(ctx context.Context) Result {
	r, _ := p.solve(ctx, false)
	return r
}

// solve is SolveContext that, when explain is set, explains an Infeasible
// verdict by the rows of a Farkas certificate, ascending: the residual
// rows with a nonzero phase-1 dual, read off the final phase-1 reduced
// costs, plus the unit rows presolve folded into their variables' bounds.
// A presolve refutation is explained by the rows that decided it.
func (p *Problem) solve(ctx context.Context, explain bool) (Result, []int) {
	ps := presolve(p)
	if ps.status == Infeasible {
		return Result{Status: Infeasible}, ps.conflict
	}
	q := &Problem{
		Constraints: ps.rows,
		Objective:   p.Objective,
		Lower:       ps.lower,
		Upper:       ps.upper,
		Integer:     p.Integer,
		MaxIter:     p.MaxIter,
	}
	// Variables absorbed entirely into bounds keep their columns: the
	// presolve wrote their bounds into q, and the tableau's variable set
	// includes every bounded variable.
	t := newTableau(q)
	t.ctx = ctx
	res := t.run()
	if res.Status != Infeasible || !explain {
		return res, nil
	}
	// An upper-bound row after the residual ones matters only through a
	// support row that shares its variable, whose origins cover it.
	in := make([]bool, len(p.Constraints))
	for i, c := range ps.rows {
		var y float64
		if pd := t.pend[i]; pd.art >= 0 {
			y = 1 - t.wcost[pd.art]
		} else {
			y = -t.wcost[pd.slack]
		}
		if math.Abs(y) <= costTol {
			continue
		}
		in[ps.orig[i]] = true
		for v := range c.Coeffs {
			ps.origins(in, v)
		}
	}
	return res, rowsIn(in)
}

// Verify reports whether x satisfies every constraint and bound of p
// (within FeasTol) and, when strict integrality is requested, integrality.
func (p *Problem) Verify(x map[string]float64, checkIntegral bool) error {
	for i, c := range p.Constraints {
		if !c.Satisfied(x) {
			return fmt.Errorf("lp: constraint %d violated: %s at lhs=%g", i, c.String(), c.Eval(x))
		}
	}
	for v, lo := range p.Lower {
		if x[v] < lo-FeasTol {
			return fmt.Errorf("lp: lower bound violated: %s = %g < %g", v, x[v], lo)
		}
	}
	for v, hi := range p.Upper {
		if x[v] > hi+FeasTol {
			return fmt.Errorf("lp: upper bound violated: %s = %g > %g", v, x[v], hi)
		}
	}
	if checkIntegral {
		for v := range p.Integer {
			if math.Abs(x[v]-math.Round(x[v])) > 1e-6 {
				return fmt.Errorf("lp: integrality violated: %s = %g", v, x[v])
			}
		}
	}
	return nil
}
