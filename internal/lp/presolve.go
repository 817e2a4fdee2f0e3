package lp

import "math"

// presolved is the outcome of the unit-row presolve.
type presolved struct {
	status Status // Feasible (meaning: not yet decided) or Infeasible
	rows   []Constraint
	lower  map[string]float64
	upper  map[string]float64
	// orig is the index in the input of each residual row; loRow/hiRow name
	// the unit row that set a bound (absent: the background bound).
	orig         []int
	loRow, hiRow map[string]int
	// conflict, when Infeasible, lists the rows that decided it.
	conflict []int
}

// presolve absorbs single-variable rows into variable bounds. On the
// conjunction-heavy systems the SMT engine produces, most rows are unit
// (x ≤ A, x = 0, lock = i, …); folding them into bounds shrinks the
// simplex tableau by an order of magnitude. Bound crossings are detected
// immediately as infeasibility. Constant rows (no variables) are decided
// in place.
func presolve(p *Problem) presolved {
	ps := presolved{
		status: Feasible,
		lower:  make(map[string]float64, len(p.Lower)),
		upper:  make(map[string]float64, len(p.Upper)),
		loRow:  map[string]int{},
		hiRow:  map[string]int{},
	}
	for v, b := range p.Lower {
		ps.lower[v] = b
	}
	for v, b := range p.Upper {
		ps.upper[v] = b
	}
	for i, c := range p.Constraints {
		// Count nonzero coefficients.
		var name string
		var coeff float64
		n := 0
		for v, a := range c.Coeffs {
			if a != 0 {
				n++
				name, coeff = v, a
			}
		}
		switch n {
		case 0:
			ok := true
			switch c.Rel {
			case LE:
				ok = 0 <= c.RHS+FeasTol
			case GE:
				ok = 0 >= c.RHS-FeasTol
			case EQ:
				ok = math.Abs(c.RHS) <= FeasTol
			}
			if !ok {
				return presolved{status: Infeasible, conflict: []int{i}}
			}
		case 1:
			b := c.RHS / coeff
			rel := c.Rel
			if coeff < 0 {
				switch rel {
				case LE:
					rel = GE
				case GE:
					rel = LE
				}
			}
			if cur, ok := ps.lower[name]; (rel == GE || rel == EQ) && (!ok || b > cur) {
				ps.lower[name], ps.loRow[name] = b, i
			}
			if cur, ok := ps.upper[name]; (rel == LE || rel == EQ) && (!ok || b < cur) {
				ps.upper[name], ps.hiRow[name] = b, i
			}
			lo, okLo := ps.lower[name]
			if hi, okHi := ps.upper[name]; okLo && okHi && lo > hi+FeasTol {
				in := make([]bool, i+1)
				ps.origins(in, name)
				return presolved{status: Infeasible, conflict: rowsIn(in)}
			}
		default:
			ps.rows = append(ps.rows, c)
			ps.orig = append(ps.orig, i)
		}
	}
	for v, lo := range ps.lower {
		if hi, ok := ps.upper[v]; ok && lo > hi+FeasTol {
			// Background bounds alone cross: no row is to blame.
			return presolved{status: Infeasible}
		}
	}
	return ps
}

// origins marks in the unit rows that set v's bounds.
func (ps *presolved) origins(in []bool, v string) {
	if i, ok := ps.loRow[v]; ok {
		in[i] = true
	}
	if i, ok := ps.hiRow[v]; ok {
		in[i] = true
	}
}
