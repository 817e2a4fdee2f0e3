package core

import (
	"sort"
	"strconv"
	"strings"

	"absolver/internal/expr"
)

// GroundPairLemmas derives propositional consequences between bindings
// whose linear atoms range over proportional left-hand sides: exclusions
// (x ≥ 5 and x ≤ 4 cannot both hold; 2y+x > 3.5 and 2y+x ≤ 3.5 likewise)
// and implications (x > 5 entails x ≥ 5). Atoms are normalised by the
// coefficient of their lexicographically smallest variable, so any pair of
// exactly proportional linear forms lands in the same bucket. The returned
// clauses are theory-valid, so adding them to the skeleton prunes Boolean
// models that every theory check would reject anyway. Variable bounds
// participate: any binding (linear or not) decided by interval evaluation
// over the bounds box yields a unit clause.
func GroundPairLemmas(p *Problem) [][]int {
	type uni struct {
		v     int // 0-based Boolean variable
		op    expr.CmpOp
		bound float64
	}
	byForm := map[string][]uni{}
	var lemmas [][]int
	// Deterministic variable order: lemma order becomes skeleton clause
	// order, which steers the Boolean search — map iteration here would
	// make seeded runs irreproducible.
	bvars := make([]int, 0, len(p.Bindings))
	for v := range p.Bindings {
		bvars = append(bvars, v)
	}
	sort.Ints(bvars)
	for _, v := range bvars {
		a := p.Bindings[v]
		// Bounds-based unit lemmas: interval evaluation is sound for every
		// atom shape (missing variables range over the whole line).
		switch a.IntervalHolds(p.Bounds) {
		case expr.True:
			lemmas = append(lemmas, []int{v + 1})
		case expr.False:
			lemmas = append(lemmas, []int{-(v + 1)})
		}
		if la, ok := expr.LinearizeAtom(a); ok {
			if key, op, bound, ok := normalizeLinear(la); ok {
				byForm[key] = append(byForm[key], uni{v: v, op: op, bound: bound})
			}
			continue
		}
		// Nonlinear atoms: group by the exact rendered LHS/RHS. Identical
		// strings denote identical expressions, so two such atoms compare
		// like unit atoms with an equal bound (complement pairs such as
		// sin(x) ≥ c vs sin(x) < c become exclusions).
		key := "nl|" + strconv.Itoa(int(a.Domain)) + "|" + expr.String(a.LHS) + "|" + expr.String(a.RHS)
		byForm[key] = append(byForm[key], uni{v: v, op: a.Op, bound: 0})
	}
	keys := make([]string, 0, len(byForm))
	for key := range byForm {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		atoms := byForm[key]
		for i := 0; i < len(atoms); i++ {
			for j := i + 1; j < len(atoms); j++ {
				a, b := atoms[i], atoms[j]
				switch PairRelation(a.op, a.bound, b.op, b.bound) {
				case RelExclusive:
					lemmas = append(lemmas, []int{-(a.v + 1), -(b.v + 1)})
				case RelAImpliesB:
					lemmas = append(lemmas, []int{-(a.v + 1), b.v + 1})
				case RelBImpliesA:
					lemmas = append(lemmas, []int{-(b.v + 1), a.v + 1})
				}
			}
		}
	}
	return lemmas
}

// GroundLemmasFor derives the ground lemmas touching one freshly bound
// variable v (0-based): its bounds-based unit lemma plus pair lemmas
// against every earlier binding over a proportional linear form — the
// incremental counterpart of GroundPairLemmas for Session.Assert. Pairs
// are ordered (existing, new) to mirror the batch pass's sorted sweep.
func GroundLemmasFor(p *Problem, v int) [][]int {
	others := make([]int, 0, len(p.Bindings))
	for w := range p.Bindings {
		others = append(others, w)
	}
	sort.Ints(others)
	return groundLemmasFor(p, v, others, func(w int) formKey { return atomFormKey(p.Bindings[w]) })
}

// groundLemmasFor is GroundLemmasFor over the sorted bound variables
// others (v among them or not), with key giving each binding's form key.
func groundLemmasFor(p *Problem, v int, others []int, key func(w int) formKey) [][]int {
	a, ok := p.Bindings[v]
	if !ok {
		return nil
	}
	var lemmas [][]int
	switch a.IntervalHolds(p.Bounds) {
	case expr.True:
		lemmas = append(lemmas, []int{v + 1})
	case expr.False:
		lemmas = append(lemmas, []int{-(v + 1)})
	}
	k := key(v)
	if k.key == "" {
		return lemmas
	}
	for _, w := range others {
		if w == v {
			continue
		}
		o := key(w)
		if o.key != k.key {
			continue
		}
		switch PairRelation(o.op, o.bound, k.op, k.bound) {
		case RelExclusive:
			lemmas = append(lemmas, []int{-(w + 1), -(v + 1)})
		case RelAImpliesB:
			lemmas = append(lemmas, []int{-(w + 1), v + 1})
		case RelBImpliesA:
			lemmas = append(lemmas, []int{-(v + 1), w + 1})
		}
	}
	return lemmas
}

// formKey is the bucketing key GroundPairLemmas uses for one atom: the
// normalised linear form for linear atoms, the rendered expression for
// nonlinear ones, "" when the atom has no comparable form; op and bound
// place the atom on its form.
type formKey struct {
	key   string
	op    expr.CmpOp
	bound float64
}

func atomFormKey(a expr.Atom) formKey {
	if la, ok := expr.LinearizeAtom(a); ok {
		if k, o, b, ok := normalizeLinear(la); ok {
			return formKey{k, o, b}
		}
		return formKey{}
	}
	return formKey{key: "nl|" + strconv.Itoa(int(a.Domain)) + "|" + expr.String(a.LHS) + "|" + expr.String(a.RHS), op: a.Op}
}

// normalizeLinear canonicalises a linear atom Σ cᵢxᵢ op b by dividing
// through by the coefficient of the lexicographically smallest variable:
// the returned key identifies the normalised left-hand side exactly
// (coefficients rendered in hex float, so no decimal rounding can merge
// distinct forms), and op/bound are adjusted for the sign of the divisor.
// Atoms with identical keys constrain the same linear form and are
// comparable by PairRelation.
func normalizeLinear(la expr.LinearAtom) (key string, op expr.CmpOp, bound float64, ok bool) {
	names := make([]string, 0, len(la.Form.Coeffs))
	for n, c := range la.Form.Coeffs {
		if c != 0 {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return "", 0, 0, false
	}
	sort.Strings(names)
	s := la.Form.Coeffs[names[0]]
	op = la.Op
	if s < 0 {
		op = flipCmp(op)
	}
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(la.Form.Coeffs[n]/s, 'x', -1, 64))
		b.WriteByte(',')
	}
	return b.String(), op, la.Bound / s, true
}

func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.CmpLT:
		return expr.CmpGT
	case expr.CmpGT:
		return expr.CmpLT
	case expr.CmpLE:
		return expr.CmpGE
	case expr.CmpGE:
		return expr.CmpLE
	}
	return op
}

// PairRel classifies the strongest sound lemma between two unit atoms.
type PairRel int

// Lemma shapes between the point sets {x : x opA a} and {x : x opB b}.
const (
	RelNone PairRel = iota
	RelExclusive
	RelAImpliesB
	RelBImpliesA
)

// holdsPoint reports x op b.
func holdsPoint(x float64, op expr.CmpOp, b float64) bool {
	switch op {
	case expr.CmpLT:
		return x < b
	case expr.CmpGT:
		return x > b
	case expr.CmpLE:
		return x <= b
	case expr.CmpGE:
		return x >= b
	case expr.CmpEQ:
		return x == b
	case expr.CmpNE:
		return x != b
	}
	return false
}

func isUp(op expr.CmpOp) bool   { return op == expr.CmpGE || op == expr.CmpGT }
func isDown(op expr.CmpOp) bool { return op == expr.CmpLE || op == expr.CmpLT }

// SubsetAtom reports {x : x opA a} ⊆ {x : x opB b}.
func SubsetAtom(opA expr.CmpOp, a float64, opB expr.CmpOp, b float64) bool {
	switch {
	case opA == expr.CmpEQ:
		return holdsPoint(a, opB, b)
	case opB == expr.CmpEQ:
		return false
	case opA == expr.CmpNE:
		return opB == expr.CmpNE && a == b
	case opB == expr.CmpNE:
		return !holdsPoint(b, opA, a)
	case isUp(opA) && isUp(opB):
		if a > b {
			return true
		}
		return a == b && !(opB == expr.CmpGT && opA == expr.CmpGE)
	case isDown(opA) && isDown(opB):
		if a < b {
			return true
		}
		return a == b && !(opB == expr.CmpLT && opA == expr.CmpLE)
	}
	return false
}

// DisjointAtom reports {x : x opA a} ∩ {x : x opB b} = ∅.
func DisjointAtom(opA expr.CmpOp, a float64, opB expr.CmpOp, b float64) bool {
	switch {
	case opA == expr.CmpEQ:
		return !holdsPoint(a, opB, b)
	case opB == expr.CmpEQ:
		return !holdsPoint(b, opA, a)
	case opA == expr.CmpNE || opB == expr.CmpNE:
		return false
	case isUp(opA) && isDown(opB):
		if a > b {
			return true
		}
		return a == b && (opA == expr.CmpGT || opB == expr.CmpLT)
	case isDown(opA) && isUp(opB):
		if b > a {
			return true
		}
		return a == b && (opB == expr.CmpGT || opA == expr.CmpLT)
	}
	return false
}

// PairRelation derives the strongest sound lemma between two unit atoms
// x opA a and x opB b.
func PairRelation(opA expr.CmpOp, a float64, opB expr.CmpOp, b float64) PairRel {
	switch {
	case DisjointAtom(opA, a, opB, b):
		return RelExclusive
	case SubsetAtom(opA, a, opB, b):
		return RelAImpliesB
	case SubsetAtom(opB, b, opA, a):
		return RelBImpliesA
	}
	return RelNone
}
