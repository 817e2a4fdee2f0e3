package lp

import (
	"context"
	"math"
	"sort"
)

// cancelPollEvery is the pivot cadence of cooperative cancellation checks:
// ctx.Err() takes a lock, so it is consulted only every few pivots.
const cancelPollEvery = 32

// pivotTol is the minimum magnitude of an eligible pivot element.
const pivotTol = 1e-9

// costTol is the reduced-cost tolerance for optimality.
const costTol = 1e-9

// colKind describes how a tableau column maps back to a problem variable.
type colKind int

const (
	colShifted colKind = iota // x = col + shift        (lower-bounded var)
	colNegated                // x = shift − col        (upper-bounded-only var)
	colPlus                   // positive part of free var
	colMinus                  // negative part of free var
	colSlack                  // slack/surplus, no problem variable
	colArtificial
)

type column struct {
	kind  colKind
	v     string  // problem variable (colShifted/colNegated/colPlus/colMinus)
	shift float64 // see kind
}

// tableau is a dense two-phase primal simplex tableau.
type tableau struct {
	p *Problem

	cols  []column
	rows  [][]float64 // m × n coefficient matrix
	rhs   []float64   // length m, kept ≥ 0 by construction
	basis []int       // basic column per row

	cost  []float64 // phase-2 reduced costs (real objective)
	wcost []float64 // phase-1 reduced costs (artificial objective)

	pivots  int
	maxIter int

	nArtificial int

	// pend holds each row's slack and artificial columns (-1: none), whose
	// phase-1 reduced costs read off the row's dual.
	pend []pending

	// ctx, when non-nil, is polled every cancelPollEvery pivots; once it
	// is done the run aborts with Status Canceled.
	ctx context.Context
}

// newTableau converts p to standard form.
func newTableau(p *Problem) *tableau {
	t := &tableau{p: p}
	vars := p.Vars()
	t.maxIter = p.MaxIter
	if t.maxIter == 0 {
		t.maxIter = 20000 + 200*(len(p.Constraints)+len(vars))
	}

	colOf := map[string][]int{} // variable → column indices (1 or 2)

	// Variable columns.
	for _, v := range vars {
		lo, hasLo := p.Lower[v]
		hi, hasHi := p.Upper[v]
		switch {
		case hasLo: // an upper bound too becomes a row below
			idx := len(t.cols)
			t.cols = append(t.cols, column{kind: colShifted, v: v, shift: lo})
			colOf[v] = []int{idx}
		case hasHi:
			idx := len(t.cols)
			t.cols = append(t.cols, column{kind: colNegated, v: v, shift: hi})
			colOf[v] = []int{idx}
		default:
			ip := len(t.cols)
			t.cols = append(t.cols, column{kind: colPlus, v: v})
			im := len(t.cols)
			t.cols = append(t.cols, column{kind: colMinus, v: v})
			colOf[v] = []int{ip, im}
		}
	}
	nVarCols := len(t.cols)

	// Helper translating a problem-space row (coeffs, rel, rhs) into a
	// standard-form row over the variable columns.
	type stdRow struct {
		a   []float64
		rel Rel
		b   float64
	}
	var rows []stdRow
	addRow := func(coeffs map[string]float64, rel Rel, b float64) {
		a := make([]float64, nVarCols)
		// Sorted iteration: the b -= c*shift accumulation below is a
		// floating-point sum, and map order would make the tableau RHS
		// (hence pivots and the witness) vary between runs.
		names := make([]string, 0, len(coeffs))
		for v := range coeffs {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, v := range names {
			c := coeffs[v]
			if c == 0 {
				continue
			}
			idxs := colOf[v] // every row variable is in vars
			col := t.cols[idxs[0]]
			switch col.kind {
			case colShifted:
				a[idxs[0]] += c
				b -= c * col.shift
			case colNegated:
				a[idxs[0]] -= c
				b -= c * col.shift
			case colPlus:
				a[idxs[0]] += c
				a[idxs[1]] -= c
			}
		}
		rows = append(rows, stdRow{a: a, rel: rel, b: b})
	}

	for _, c := range p.Constraints {
		addRow(c.Coeffs, c.Rel, c.RHS)
	}
	// Upper bounds of doubly-bounded variables become rows.
	for _, v := range vars {
		_, hasLo := p.Lower[v]
		hi, hasHi := p.Upper[v]
		if hasLo && hasHi {
			addRow(map[string]float64{v: 1}, LE, hi)
		}
	}

	// Normalise to b ≥ 0 and append slack/artificial columns.
	m := len(rows)
	t.rows = make([][]float64, m)
	t.rhs = make([]float64, m)
	t.basis = make([]int, m)
	t.pend = make([]pending, m)
	pend := t.pend
	for i, r := range rows {
		a, rel, b := r.a, r.rel, r.b
		if b < 0 {
			for j := range a {
				a[j] = -a[j]
			}
			b = -b
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		t.rows[i] = a
		t.rhs[i] = b
		pend[i] = pending{slack: -1, art: -1}
		switch rel {
		case LE:
			pend[i].slack = t.appendCol(column{kind: colSlack})
		case GE:
			pend[i].slack = t.appendCol(column{kind: colSlack}) // surplus, coefficient −1
			pend[i].art = t.appendCol(column{kind: colArtificial})
		case EQ:
			pend[i].art = t.appendCol(column{kind: colArtificial})
		}
		rows[i].rel = rel
	}
	n := len(t.cols)
	for i := range t.rows {
		a := t.rows[i]
		grown := make([]float64, n)
		copy(grown, a)
		t.rows[i] = grown
		switch rows[i].rel {
		case LE:
			grown[pend[i].slack] = 1
			t.basis[i] = pend[i].slack
		case GE:
			grown[pend[i].slack] = -1
			grown[pend[i].art] = 1
			t.basis[i] = pend[i].art
			t.nArtificial++
		case EQ:
			grown[pend[i].art] = 1
			t.basis[i] = pend[i].art
			t.nArtificial++
		}
	}

	// Phase-2 cost row: real objective (minimisation), mapped to columns.
	t.cost = make([]float64, n)
	if p.Objective != nil {
		for v, c := range p.Objective {
			idxs := colOf[v]
			col := t.cols[idxs[0]]
			switch col.kind {
			case colShifted:
				t.cost[idxs[0]] += c
			case colNegated:
				t.cost[idxs[0]] -= c
			case colPlus:
				t.cost[idxs[0]] += c
				t.cost[idxs[1]] -= c
			}
		}
	}

	// Phase-1 cost row: sum of artificials, priced out over the initial
	// basis (each artificial is basic, so subtract its row).
	t.wcost = make([]float64, n)
	for j, col := range t.cols {
		if col.kind == colArtificial {
			t.wcost[j] = 1
		}
	}
	for i, bj := range t.basis {
		if t.cols[bj].kind == colArtificial {
			for j := range t.wcost {
				t.wcost[j] -= t.rows[i][j]
			}
		}
	}
	// The real cost row is already priced out over the initial basis: slack
	// and artificial basics carry zero phase-2 cost, and every later pivot
	// updates both cost rows. The objective value itself is recomputed from
	// the extracted point in run(), so no constant term is tracked here.
	return t
}

type pending struct{ slack, art int }

func (t *tableau) appendCol(c column) int {
	t.cols = append(t.cols, c)
	return len(t.cols) - 1
}

// pivot performs a pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	t.pivots++
	piv := t.rows[row][col]
	inv := 1 / piv
	r := t.rows[row]
	for j := range r {
		r[j] *= inv
	}
	t.rhs[row] *= inv
	r[col] = 1 // exact

	for i := range t.rows {
		if i == row {
			continue
		}
		f := t.rows[i][col]
		if f == 0 {
			continue
		}
		ri := t.rows[i]
		for j := range ri {
			ri[j] -= f * r[j]
		}
		ri[col] = 0
		t.rhs[i] -= f * t.rhs[row]
		if t.rhs[i] < 0 && t.rhs[i] > -1e-11 {
			t.rhs[i] = 0
		}
	}
	for _, costRow := range [][]float64{t.cost, t.wcost} {
		f := costRow[col]
		if f == 0 {
			continue
		}
		for j := range costRow {
			costRow[j] -= f * r[j]
		}
		costRow[col] = 0
	}
	t.basis[row] = col
}

// phase runs simplex to optimality over the given reduced-cost row.
// banned marks columns that may not enter (artificials in phase 2).
func (t *tableau) phase(costRow []float64, banned func(int) bool) Status {
	for {
		if t.pivots > t.maxIter {
			return IterLimit
		}
		if t.ctx != nil && t.pivots%cancelPollEvery == 0 && t.ctx.Err() != nil {
			return Canceled
		}
		// Bland's rule: smallest-index column with negative reduced cost.
		enter := -1
		for j := range costRow {
			if banned != nil && banned(j) {
				continue
			}
			if costRow[j] < -costTol {
				enter = j
				break
			}
		}
		if enter == -1 {
			return Feasible // optimal
		}
		// Ratio test, Bland tie-break on basis variable index.
		leave := -1
		best := math.Inf(1)
		for i := range t.rows {
			a := t.rows[i][enter]
			if a <= pivotTol {
				continue
			}
			ratio := t.rhs[i] / a
			if ratio < best-1e-12 || (math.Abs(ratio-best) <= 1e-12 && (leave == -1 || t.basis[i] < t.basis[leave])) {
				best = ratio
				leave = i
			}
		}
		if leave == -1 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
}

// objValue returns the current phase-1 infeasibility (sum of artificial
// basic values).
func (t *tableau) phase1Value() float64 {
	s := 0.0
	for i, bj := range t.basis {
		if t.cols[bj].kind == colArtificial {
			s += t.rhs[i]
		}
	}
	return s
}

// run executes both phases and maps the solution back.
func (t *tableau) run() Result {
	res := Result{Status: Feasible}

	if t.nArtificial > 0 {
		st := t.phase(t.wcost, nil)
		if st == IterLimit || st == Canceled {
			return Result{Status: st, Pivots: t.pivots}
		}
		if st == Unbounded {
			// Phase-1 objective is bounded below by 0; unbounded signals a
			// numerical breakdown. Treat as iteration limit.
			return Result{Status: IterLimit, Pivots: t.pivots}
		}
		if t.phase1Value() > 1e-6 {
			return Result{Status: Infeasible, Pivots: t.pivots}
		}
		// Drive remaining artificial basics (at zero) out where possible.
		for i, bj := range t.basis {
			if t.cols[bj].kind != colArtificial {
				continue
			}
			for j := range t.cols {
				if t.cols[j].kind == colArtificial {
					continue
				}
				if math.Abs(t.rows[i][j]) > pivotTol {
					t.pivot(i, j)
					break
				}
			}
		}
	}

	banned := func(j int) bool { return t.cols[j].kind == colArtificial }
	if t.p.Objective != nil {
		st := t.phase(t.cost, banned)
		switch st {
		case IterLimit, Canceled:
			return Result{Status: st, Pivots: t.pivots}
		case Unbounded:
			return Result{Status: Unbounded, Pivots: t.pivots}
		}
	}

	// Extract variable values.
	val := make([]float64, len(t.cols))
	for i, bj := range t.basis {
		val[bj] = t.rhs[i]
	}
	x := make(map[string]float64)
	for j, col := range t.cols {
		switch col.kind {
		case colShifted:
			x[col.v] = val[j] + col.shift
		case colNegated:
			x[col.v] = col.shift - val[j]
		case colPlus:
			x[col.v] += val[j]
		case colMinus:
			x[col.v] -= val[j]
		}
	}
	res.X = x
	res.Pivots = t.pivots
	if t.p.Objective != nil {
		obj := 0.0
		for v, c := range t.p.Objective {
			obj += c * x[v]
		}
		res.Objective = obj
	}
	return res
}
