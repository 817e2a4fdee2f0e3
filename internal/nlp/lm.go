package nlp

import (
	"context"
	"math"

	"absolver/internal/expr"
)

// polish refines a candidate point by damped Gauss-Newton (Levenberg-
// Marquardt) iterations on the violation residual vector. Gradient descent
// converges only linearly near a solution of tight equalities; LM restores
// the quadratic local convergence an interior-point solver like IPOPT has.
// x is refined in place and returned, at least as good as on entry under
// the merit function. evals counts merit evaluations.
func polish(ctx context.Context, p *penalty, x []float64) ([]float64, int) {
	evals := 0
	f, ok := p.eval(x)
	evals++
	if !ok {
		return x, evals
	}
	lambda := 1e-3
	n := len(p.cols)
	if n == 0 {
		return x, evals
	}
	trial := p.trial
	for iter := 0; iter < 60; iter++ {
		if f <= Tol*Tol {
			return x, evals
		}
		if ctx.Err() != nil {
			return x, evals
		}
		// Residuals and Jacobian of active terms.
		var rows [][]float64
		var res []float64
		for i := range p.terms {
			t := &p.terms[i]
			g, ok := t.g.Eval(x, p.stack)
			if !ok {
				return x, evals
			}
			v, dvdg := t.violation(g)
			if v == 0 && t.op != expr.CmpEQ {
				continue
			}
			if t.op == expr.CmpEQ {
				dvdg = 1
			}
			row := make([]float64, n)
			for _, pd := range t.partials {
				d, ok := pd.d.Eval(x, p.stack)
				if !ok {
					return x, evals
				}
				row[pd.col] = dvdg * d
			}
			rows = append(rows, row)
			res = append(res, v)
		}
		if len(rows) == 0 {
			return x, evals
		}
		// Normal equations A = JᵀJ + λ·diag(JᵀJ), b = −Jᵀr.
		a := make([][]float64, n)
		b := make([]float64, n)
		for j := 0; j < n; j++ {
			a[j] = make([]float64, n)
		}
		for ri, row := range rows {
			for j := 0; j < n; j++ {
				if row[j] == 0 {
					continue
				}
				b[j] -= row[j] * res[ri]
				for k := 0; k <= j; k++ {
					a[j][k] += row[j] * row[k]
				}
			}
		}
		for j := 0; j < n; j++ {
			for k := j + 1; k < n; k++ {
				a[j][k] = a[k][j]
			}
		}
		improved := false
		for attempt := 0; attempt < 8; attempt++ {
			// Damped system.
			ad := make([][]float64, n)
			for j := 0; j < n; j++ {
				ad[j] = make([]float64, n)
				copy(ad[j], a[j])
				diag := a[j][j]
				if diag == 0 {
					diag = 1
				}
				ad[j][j] += lambda * diag
			}
			bd := make([]float64, n)
			copy(bd, b)
			delta, ok := solveDense(ad, bd)
			if ok {
				copy(trial, x)
				for j, s := range p.cols {
					trial[s] = p.bounds[s].Clamp(x[s] + delta[j])
				}
				ft, okT := p.eval(trial)
				evals++
				if okT && ft < f {
					copy(x, trial)
					f = ft
					lambda = math.Max(lambda/3, 1e-12)
					improved = true
					break
				}
			}
			lambda *= 4
		}
		if !improved {
			return x, evals
		}
	}
	return x, evals
}

// solveDense solves a·x = b by Gaussian elimination with partial pivoting.
// ok=false on (near-)singular systems.
func solveDense(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-14 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, true
}
