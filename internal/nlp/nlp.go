// Package nlp implements the nonlinear constraint solving substrate
// standing in for IPOPT in the paper: deciding feasibility of conjunctions
// of (possibly) nonlinear arithmetic atoms over box domains.
//
// Two complementary engines are combined:
//
//   - An HC4-style interval constraint propagator contracts the variable
//     box through the expression trees (forward evaluation, backward
//     projection). If the box becomes empty the conjunction is proved
//     infeasible — a refutation IPOPT itself cannot produce, needed for the
//     paper's nonlinear_unsat benchmark.
//   - A multi-start penalty method with Armijo line search searches for a
//     feasible witness, playing IPOPT's role of finding points satisfying
//     smooth nonlinear systems. Each atom's difference LHS − RHS and its
//     symbolic partial derivatives are compiled once per solve to slot
//     tapes (expr.Tape), so the descent and its Levenberg-Marquardt polish
//     evaluate flat programs over []float64 vectors; expr.Expr.Eval stays
//     the reference semantics, which the tapes reproduce bit for bit, and
//     the witness is verified against the atoms themselves.
//
// Like the IPOPT-based original, the combination is incomplete: when
// neither a witness nor a refutation is found within budget, the verdict is
// Unknown (the paper's "?"), and the engine escalates (e.g. blocks the
// candidate Boolean assignment).
package nlp

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"absolver/internal/expr"
	"absolver/internal/interval"
)

// Status is the outcome of a nonlinear feasibility query.
type Status int

// Outcomes. Unknown corresponds to the paper's "?" value.
const (
	Unknown Status = iota
	Feasible
	Infeasible
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	}
	return "unknown"
}

// Problem is a conjunction of atoms over box-constrained variables.
type Problem struct {
	Atoms []expr.Atom
	// Box gives per-variable domains; variables missing from the box are
	// unbounded (but sampling clamps them to ±DefaultRange).
	Box expr.Box
}

// Vars returns the sorted variable set of the problem.
func (p *Problem) Vars() []string {
	set := map[string]struct{}{}
	for _, a := range p.Atoms {
		for _, v := range a.Vars() {
			set[v] = struct{}{}
		}
	}
	for v := range p.Box {
		set[v] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Fixed tolerances and sweep budgets of the solver. StrictMargin, Tol and
// DefaultRange are exported because PolyAR accepts witnesses and clamps
// boxes by the same rules. The float64 types make arithmetic on them round
// like arithmetic on float64 variables (Tol*Tol is not exactly 1e-16).
const (
	// StrictMargin is the slack required of strict inequalities and
	// disequalities (matching lp.Epsilon).
	StrictMargin float64 = 1e-6
	// Tol is the witness acceptance tolerance on non-strict constraints.
	Tol float64 = 1e-8
	// DefaultRange clamps unbounded variables for sampling.
	DefaultRange float64 = 100
	// interiorMargin biases the search towards points strictly inside weak
	// inequalities: the descent treats x ≤ b as x ≤ b−m, so witnesses are
	// robust to exact re-evaluation (e.g. by simulation), while acceptance
	// still uses the true semantics — boundary witnesses are returned when
	// nothing better exists.
	interiorMargin float64 = 1e-4
	// propagationRounds bounds HC4 sweeps.
	propagationRounds = 60
)

// Options tune the solver.
type Options struct {
	// Starts is the number of multi-start descent attempts (default 24).
	Starts int
	// MaxIters bounds gradient iterations per start (default 300).
	MaxIters int
	// Seed makes runs deterministic (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Starts == 0 {
		o.Starts = 24
	}
	if o.MaxIters == 0 {
		o.MaxIters = 300
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result carries the verdict and, when Feasible, a witness point.
type Result struct {
	Status Status
	X      expr.Env
	// ContractedBox is the box after propagation (diagnostics; empty box
	// iff Status == Infeasible by propagation).
	ContractedBox expr.Box
	// Evals counts penalty-function evaluations (work measure).
	Evals int
}

// Solve decides feasibility of p.
func Solve(p *Problem, opt Options) Result {
	return SolveContext(context.Background(), p, opt)
}

// SolveContext is Solve with cooperative cancellation: the context is
// polled between propagation sweeps, between multi-start attempts, and
// inside every descent/polish iteration, so a cancelled solve stops within
// one poll interval. Cancellation yields Status Unknown (the partial
// search proves nothing).
func SolveContext(ctx context.Context, p *Problem, opt Options) Result {
	opt = opt.withDefaults()

	box := p.Box.Clone()
	if box == nil {
		box = expr.Box{}
	}
	for _, v := range p.Vars() {
		if _, ok := box[v]; !ok {
			box[v] = interval.Whole()
		}
	}

	// Phase 1: interval propagation for refutation and search-space
	// contraction.
	empty, canceled := contract(ctx, p.Atoms, box, propagationRounds)
	if empty {
		return Result{Status: Infeasible, ContractedBox: box}
	}
	if canceled {
		return Result{Status: Unknown, ContractedBox: box}
	}

	// Phase 2: multi-start penalty descent. The descent and the polish run
	// on slot vectors; env carries each candidate to the verifier and the
	// accepted one out as the witness.
	pen := newPenalty(p, box)
	rng := rand.New(rand.NewSource(opt.Seed))
	env := make(expr.Env, len(pen.vars))
	evals := 0

	for start := 0; start < opt.Starts; start++ {
		if ctx.Err() != nil {
			return Result{Status: Unknown, ContractedBox: box, Evals: evals}
		}
		samplePoint(pen.x, pen.vars, box, rng, DefaultRange, start)
		x, e := descend(ctx, pen, opt)
		evals += e
		if x == nil {
			continue
		}
		if Verify(p.Atoms, pen.fillEnv(env, x), StrictMargin, Tol) {
			return Result{Status: Feasible, X: env, ContractedBox: box, Evals: evals}
		}
		// Gradient descent gets close; Levenberg-Marquardt finishes the job
		// on tight (near-)equalities.
		x, e = polish(ctx, pen, x)
		evals += e
		if Verify(p.Atoms, pen.fillEnv(env, x), StrictMargin, Tol) {
			return Result{Status: Feasible, X: env, ContractedBox: box, Evals: evals}
		}
	}
	return Result{Status: Unknown, ContractedBox: box, Evals: evals}
}

// samplePoint draws a start point into x, one value per variable of vars.
// The first start uses box midpoints (a good deterministic guess); later
// starts are uniform in the clamped box.
func samplePoint(x []float64, vars []string, box expr.Box, rng *rand.Rand, rangeClamp float64, start int) {
	for i, v := range vars {
		iv := box[v]
		lo, hi := iv.Lo, iv.Hi
		if math.IsInf(lo, -1) {
			lo = -rangeClamp
		}
		if math.IsInf(hi, 1) {
			hi = rangeClamp
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if start == 0 {
			x[i] = lo + (hi-lo)/2
		} else {
			x[i] = lo + rng.Float64()*(hi-lo)
		}
	}
}

// Verify is the one witness-acceptance rule of the nonlinear solvers: env
// is accepted iff every atom holds, strict atoms clearing their bound by
// strictMargin/2, disequalities by the same margin on either side, and
// all other atoms within tol.
func Verify(atoms []expr.Atom, env expr.Env, strictMargin, tol float64) bool {
	for _, a := range atoms {
		t := tol
		switch a.Op {
		case expr.CmpLT, expr.CmpGT:
			// Negative tolerance demands a real margin below/above the bound.
			t = -strictMargin / 2
		case expr.CmpNE:
			// Positive tolerance on ≠ demands |l−r| beyond the margin.
			t = strictMargin / 2
		}
		if ok, err := a.HoldsTol(env, t); err != nil || !ok {
			return false
		}
	}
	return true
}
