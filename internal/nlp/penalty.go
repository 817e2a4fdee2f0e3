package nlp

import (
	"context"
	"math"

	"absolver/internal/expr"
	"absolver/internal/interval"
)

// penalty is the smooth(ish) merit function Σ vᵢ(x)² over the atoms, where
// vᵢ measures atom i's violation, together with its symbolic gradient,
// both compiled once to slot tapes. Slot i holds the i-th of the problem's
// sorted variables. A penalty owns the scratch vectors the descent and
// the polish run on, so it serves one solve at a time.
type penalty struct {
	terms []penaltyTerm
	// vars names the slots: the problem's sorted variables.
	vars []string
	// bounds is each slot's box interval, Whole where the box leaves the
	// variable unconstrained.
	bounds []interval.Interval
	// cols lists the slots the atoms mention, in first-seen order: the
	// columns of polish's Jacobian.
	cols []int
	// Scratch: the current point, a line-search trial point, the
	// gradient, and the tapes' evaluation stack.
	x, trial, grad, stack []float64
}

// penaltyTerm holds one atom's normalised difference g = LHS − RHS, the
// violation shape, and ∂g/∂v for each variable g mentions.
type penaltyTerm struct {
	g        *expr.Tape
	op       expr.CmpOp
	partials []partial
}

// partial is ∂g/∂v for the variable in slot, which is Jacobian column col.
type partial struct {
	slot, col int
	d         *expr.Tape
}

// newPenalty compiles the merit function of p's atoms over p's sorted
// variables, clamping line-search points into box.
func newPenalty(p *Problem, box expr.Box) *penalty {
	vars := p.Vars()
	pen := &penalty{vars: vars, bounds: make([]interval.Interval, len(vars))}
	slot := make(map[string]int, len(vars))
	for i, v := range vars {
		slot[v] = i
		pen.bounds[i] = interval.Whole()
		if iv, ok := box[v]; ok && !iv.IsEmpty() {
			pen.bounds[i] = iv
		}
	}
	col := map[int]int{}
	depth := 0
	for _, a := range p.Atoms {
		g := expr.Simplify(a.Diff())
		t := penaltyTerm{g: expr.Compile(g, slot), op: a.Op}
		depth = max(depth, t.g.Depth())
		for _, v := range expr.Vars(g) {
			s := slot[v]
			c, ok := col[s]
			if !ok {
				c = len(pen.cols)
				col[s] = c
				pen.cols = append(pen.cols, s)
			}
			d := expr.Compile(expr.Simplify(g.Diff(v)), slot)
			depth = max(depth, d.Depth())
			t.partials = append(t.partials, partial{slot: s, col: c, d: d})
		}
		pen.terms = append(pen.terms, t)
	}
	pen.x = make([]float64, len(vars))
	pen.trial = make([]float64, len(vars))
	pen.grad = make([]float64, len(vars))
	pen.stack = make([]float64, depth)
	return pen
}

// violation returns v(g) ≥ 0 and dv/dg for the term's comparison shape.
// v is zero exactly when the (margin-adjusted) constraint holds.
func (t *penaltyTerm) violation(g float64) (v, dvdg float64) {
	switch t.op {
	case expr.CmpLE:
		if s := g + interiorMargin; s > 0 {
			return s, 1
		}
	case expr.CmpLT:
		if s := g + StrictMargin + interiorMargin; s > 0 {
			return s, 1
		}
	case expr.CmpGE:
		if s := interiorMargin - g; s > 0 {
			return s, -1
		}
	case expr.CmpGT:
		if s := StrictMargin + interiorMargin - g; s > 0 {
			return s, -1
		}
	case expr.CmpEQ:
		return g, 1 // squared afterwards; sign irrelevant
	case expr.CmpNE:
		if s := StrictMargin - math.Abs(g); s > 0 {
			if g >= 0 {
				return s, -1
			}
			return s, 1
		}
	}
	return 0, 0
}

// eval computes F(x) = Σ v² ; ok=false at points outside g's domain
// (division by zero etc.), treated as +∞ by the line search.
func (p *penalty) eval(x []float64) (float64, bool) {
	f := 0.0
	for i := range p.terms {
		g, ok := p.terms[i].g.Eval(x, p.stack)
		if !ok {
			return math.Inf(1), false
		}
		v, _ := p.terms[i].violation(g)
		f += v * v
	}
	return f, true
}

// gradient computes ∇F(x) into p.grad. Terms whose gradient evaluation
// fails contribute nothing (their violation spike is handled by the line
// search's domain rejection).
func (p *penalty) gradient(x []float64) []float64 {
	out := p.grad
	clear(out)
	for i := range p.terms {
		t := &p.terms[i]
		g, ok := t.g.Eval(x, p.stack)
		if !ok {
			continue
		}
		v, dvdg := t.violation(g)
		if v == 0 || dvdg == 0 {
			if t.op != expr.CmpEQ || v == 0 {
				continue
			}
		}
		scale := 2 * v * dvdg
		for _, pd := range t.partials {
			d, ok := pd.d.Eval(x, p.stack)
			if !ok {
				continue
			}
			out[pd.slot] += scale * d
		}
	}
	return out
}

// fillEnv writes the slot vector x into env under the variables' names.
func (p *penalty) fillEnv(env expr.Env, x []float64) expr.Env {
	for i, v := range p.vars {
		env[v] = x[i]
	}
	return env
}

// descend runs projected gradient descent with Armijo backtracking from
// the start point in p.x, in place. The returned point (p.x, or nil when
// the start and its nudge are both outside the merit function's domain)
// is the best found, possibly not feasible; evals counts merit
// evaluations. ctx is polled once per iteration; on cancellation the
// current best point is returned immediately.
func descend(ctx context.Context, p *penalty, opt Options) ([]float64, int) {
	x, trial := p.x, p.trial
	evals := 0
	f, ok := p.eval(x)
	evals++
	if !ok {
		// Nudge off the singularity, staying inside the box.
		for i := range x {
			x[i] = p.bounds[i].Clamp(x[i] + 1e-3)
		}
		f, ok = p.eval(x)
		evals++
		if !ok {
			return nil, evals
		}
	}
	for iter := 0; iter < opt.MaxIters; iter++ {
		if f <= Tol*Tol {
			return x, evals
		}
		if ctx.Err() != nil {
			return x, evals
		}
		g := p.gradient(x)
		// Slots are in sorted variable order, so the floating-point total
		// (and hence the whole trajectory) is deterministic.
		norm2 := 0.0
		for _, d := range g {
			norm2 += d * d
		}
		if norm2 < 1e-24 {
			return x, evals // stationary (possibly a local minimum > 0)
		}
		// Armijo backtracking.
		step := 1.0
		if norm2 > 1 {
			step = 1 / math.Sqrt(norm2) // normalise huge gradients
		}
		improved := false
		for back := 0; back < 50; back++ {
			for i, v := range x {
				trial[i] = p.bounds[i].Clamp(v - step*g[i])
			}
			ft, okT := p.eval(trial)
			evals++
			if okT && ft <= f-1e-4*step*norm2 {
				copy(x, trial)
				f = ft
				improved = true
				break
			}
			step /= 2
		}
		if !improved {
			return x, evals
		}
	}
	return x, evals
}
