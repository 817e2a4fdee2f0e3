package lp

import (
	"context"
	"math"
	"sort"
)

// propagationRounds bounds bound propagation; a round that tightens
// nothing ends it early.
const propagationRounds = 50

// sparse holds a Problem's rows compiled once into slot-indexed form for
// bound propagation, and the propagation trail. Row i's terms are
// cols/vals[start[i]:start[i+1]] in ascending variable-name order with
// zero coefficients dropped; lo/hi are each slot's background bounds (±Inf
// when absent), curLo/curHi the propagated ones.
type sparse struct {
	start        []int32
	cols         []int32
	vals         []float64
	lo, hi       []float64
	curLo, curHi []float64
	// loAt/hiAt name the trail entry that set each slot's current bound
	// (-1: the background bound).
	loAt, hiAt []int32
	trail      []reason
	ante       []int32
}

// reason is one trail entry, like a CDCL reason clause: the row that
// tightened a bound and the trail entries of the bounds it read
// (ante[from:to]).
type reason struct{ row, from, to int32 }

func compile(p *Problem) *sparse {
	s := &sparse{start: make([]int32, 1, len(p.Constraints)+1)}
	slot := make(map[string]int32, len(p.Constraints))
	var names []string
	for _, c := range p.Constraints {
		names = names[:0]
		for v, a := range c.Coeffs {
			if a != 0 {
				names = append(names, v)
			}
		}
		sort.Strings(names)
		for _, v := range names {
			k, ok := slot[v]
			if !ok {
				k = int32(len(slot))
				slot[v] = k
				s.lo, s.hi = append(s.lo, math.Inf(-1)), append(s.hi, math.Inf(1))
				if b, ok := p.Lower[v]; ok {
					s.lo[k] = b
				}
				if b, ok := p.Upper[v]; ok {
					s.hi[k] = b
				}
			}
			s.cols = append(s.cols, k)
			s.vals = append(s.vals, c.Coeffs[v])
		}
		s.start = append(s.start, int32(len(s.cols)))
	}
	n := len(slot)
	s.curLo, s.curHi = make([]float64, n), make([]float64, n)
	s.loAt, s.hiAt = make([]int32, n), make([]int32, n)
	return s
}

// propagate runs iterated bound propagation over the listed rows, in
// ascending order: in every row Σ aᵢxᵢ ? b, the other variables' bounds
// bound each xⱼ. An emptied domain proves infeasibility; propagate then
// returns the rows that explain it. nil is inconclusive.
func (s *sparse) propagate(p *Problem, rows []int) []int {
	const tol = 1e-9
	copy(s.curLo, s.lo)
	copy(s.curHi, s.hi)
	for i := range s.loAt {
		s.loAt[i], s.hiAt[i] = -1, -1
	}
	s.trail, s.ante = s.trail[:0], s.ante[:0]
	for round := 0; round < propagationRounds; round++ {
		changed := false
		for _, r := range rows {
			c := &p.Constraints[r]
			// Row as Σ aᵢxᵢ ≤ bU and/or Σ aᵢxᵢ ≥ bL.
			hasU, hasL := c.Rel == LE || c.Rel == EQ, c.Rel == GE || c.Rel == EQ
			cols, vals := s.cols[s.start[r]:s.start[r+1]], s.vals[s.start[r]:s.start[r+1]]
			for j, v := range cols {
				a := vals[j]
				up := a > 0 // a·x ≤ β bounds x above
				// Bounds on Σ_{w≠v} a_w x_w, summed in row order.
				restLo, restHi := 0.0, 0.0
				for k, w := range cols {
					if k == j {
						continue
					}
					if aw := vals[k]; aw > 0 {
						restLo += aw * s.curLo[w]
						restHi += aw * s.curHi[w]
					} else {
						restLo += aw * s.curHi[w]
						restHi += aw * s.curLo[w]
					}
				}
				// a·x ≤ bU − restLo  and  a·x ≥ bL − restHi.
				if hasU && !math.IsInf(restLo, 0) {
					nb := (c.RHS - restLo) / a
					if up && nb < s.curHi[v]-tol || !up && nb > s.curLo[v]+tol {
						s.tighten(int32(r), cols, vals, j, up, true, nb)
						changed = true
					}
				}
				if hasL && !math.IsInf(restHi, 0) {
					nb := (c.RHS - restHi) / a
					if !up && nb < s.curHi[v]-tol || up && nb > s.curLo[v]+tol {
						s.tighten(int32(r), cols, vals, j, !up, false, nb)
						changed = true
					}
				}
				if s.curLo[v] > s.curHi[v]+FeasTol {
					return s.explain(v, r, len(p.Constraints))
				}
			}
		}
		if !changed {
			return nil
		}
	}
	return nil
}

// tighten sets the upper (hi) or lower bound of cols[j] to nb and records
// why: row r and the bounds its rest sum read (fromLo: lower ends of
// positive terms, upper ends of negative ones; else the reverse).
func (s *sparse) tighten(r int32, cols []int32, vals []float64, j int, hi, fromLo bool, nb float64) {
	from := int32(len(s.ante))
	for k, w := range cols {
		if k == j {
			continue
		}
		at := s.loAt[w]
		if (vals[k] > 0) != fromLo {
			at = s.hiAt[w]
		}
		if at >= 0 {
			s.ante = append(s.ante, at)
		}
	}
	e := int32(len(s.trail))
	s.trail = append(s.trail, reason{row: r, from: from, to: int32(len(s.ante))})
	if v := cols[j]; hi {
		s.curHi[v], s.hiAt[v] = nb, e
	} else {
		s.curLo[v], s.loAt[v] = nb, e
	}
}

// explain walks the trail back from slot v's crossed bounds (found while
// propagating row r) and returns the rows it reaches, ascending.
// Antecedents precede their entry, so one backward sweep suffices.
func (s *sparse) explain(v int32, r, nRows int) []int {
	in := make([]bool, nRows)
	in[r] = true
	need := make([]bool, len(s.trail))
	for _, e := range []int32{s.loAt[v], s.hiAt[v]} {
		if e >= 0 {
			need[e] = true
		}
	}
	for e := len(s.trail) - 1; e >= 0; e-- {
		if need[e] {
			t := s.trail[e]
			in[t.row] = true
			for _, a := range s.ante[t.from:t.to] {
				need[a] = true
			}
		}
	}
	return rowsIn(in)
}

func rowsIn(in []bool) []int {
	var out []int
	for i, ok := range in {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// Check decides p after bound propagation — by SolveMIPContext when it
// marks integer variables, by simplex otherwise — and explains an
// Infeasible verdict once: the propagation trail or the relaxation's
// Farkas support names candidate rows, and the deletion filter minimises
// inside them, to the paper's "smallest conflicting subset". It is
// irreducible for propagation or for the LP, by the refutation's kind;
// every row when only integrality is infeasible.
func (p *Problem) Check(ctx context.Context, maxNodes int) (Result, []int) {
	s := compile(p)
	if e := s.propagate(p, allRows(p)); e != nil {
		return Result{Status: Infeasible}, s.filter(ctx, p, e, false)
	}
	var res Result
	var cand []int
	if len(p.Integer) == 0 {
		res, cand = p.solve(ctx, true)
	} else if res = p.SolveMIPContext(ctx, maxNodes).Result; res.Status == Infeasible {
		if _, cand = p.solve(ctx, true); cand == nil {
			return res, allRows(p)
		}
	}
	if res.Status != Infeasible {
		return res, nil
	}
	return res, s.filter(ctx, p, cand, true)
}

// IIS computes an irreducible infeasible subset of the rows of p's linear
// relaxation: no proper subset is infeasible together with the variable
// bounds, which are background theory and never removed. The rows are
// explained as in Check and filtered with simplex. IIS returns nil when
// the relaxation is feasible.
func (p *Problem) IIS() []int {
	s := compile(p)
	cand := s.propagate(p, allRows(p))
	if cand == nil {
		if _, cand = p.solve(context.Background(), true); cand == nil {
			return nil
		}
	}
	return s.filter(context.Background(), p, cand, true)
}

// filter is the deletion filter, run over an explanation's candidate rows
// only: each candidate is dropped in turn and stays out while the rest is
// still refuted — by propagation, then (withSimplex) by simplex when
// propagation is inconclusive. Cancellation stops it with the sound but
// unminimised remainder.
func (s *sparse) filter(ctx context.Context, p *Problem, cand []int, withSimplex bool) []int {
	refuted := func(rows []int) bool {
		if s.propagate(p, rows) != nil {
			return true
		}
		if !withSimplex {
			return false
		}
		q := &Problem{Constraints: make([]Constraint, len(rows)), Lower: p.Lower, Upper: p.Upper, MaxIter: p.MaxIter}
		for i, r := range rows {
			q.Constraints[i] = p.Constraints[r]
		}
		return q.SolveContext(ctx).Status == Infeasible
	}
	keep := append([]int(nil), cand...)
	if !refuted(keep) {
		// Replayed alone the explanation can miss by the tolerance it was
		// derived with; every row is the explanation of last resort.
		keep = allRows(p)
	}
	trial := make([]int, 0, len(keep))
	for i := 0; i < len(keep) && ctx.Err() == nil; {
		trial = append(append(trial[:0], keep[:i]...), keep[i+1:]...)
		if refuted(trial) {
			keep, trial = trial, keep
		} else {
			i++
		}
	}
	return append([]int(nil), keep...) // nil when no row is to blame
}

func allRows(p *Problem) []int {
	out := make([]int, len(p.Constraints))
	for i := range out {
		out[i] = i
	}
	return out
}
