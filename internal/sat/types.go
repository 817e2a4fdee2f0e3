// Package sat implements a CDCL (conflict-driven clause learning)
// propositional satisfiability solver in the style of zChaff/MiniSat, plus
// an AllSAT enumeration mode standing in for the LSAT solver of the paper
// ("which not only determines satisfiability, but is also able to provide
// all satisfying assignments").
//
// Features: two-watched-literal propagation, first-UIP conflict analysis
// with clause minimisation, VSIDS variable activities with phase saving,
// Luby restarts, learnt-clause database reduction, incremental solving
// under assumptions, and plain DIMACS I/O. Clauses live in a flat []uint32
// arena addressed by 32-bit refs (see arena.go) with mark-and-relocate
// compaction, and cheap inprocessing — level-0 simplification, binary
// self-subsumption and failed-literal probing — runs between restarts (see
// inprocess.go). ABsolver's engine (package core) uses the solver through
// the BoolSolver plug-in interface.
package sat

import "fmt"

// Var is a propositional variable index, starting at 0.
type Var = int

// Lit is a literal: variable index shifted left once, with the low bit set
// for negative polarity (MiniSat encoding).
type Lit int32

// LitUndef is the sentinel "no literal".
const LitUndef Lit = -1

// MkLit builds the literal over v, negated when neg is true.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// FromDIMACS converts a nonzero DIMACS literal (±(v+1)) to a Lit.
func FromDIMACS(n int) Lit {
	if n == 0 {
		panic("sat: zero DIMACS literal")
	}
	if n > 0 {
		return MkLit(n-1, false)
	}
	return MkLit(-n-1, true)
}

// DIMACS returns the literal in DIMACS convention (±(v+1)).
func (l Lit) DIMACS() int {
	n := l.Var() + 1
	if l.Neg() {
		return -n
	}
	return n
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return int(l >> 1) }

// Neg reports whether the literal is negative.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal in DIMACS convention.
func (l Lit) String() string {
	if l == LitUndef {
		return "⊥"
	}
	return fmt.Sprintf("%d", l.DIMACS())
}

// LBool is a lifted Boolean: true, false, or undefined.
type LBool int8

// Lifted Boolean constants.
const (
	LUndef LBool = iota
	LTrue
	LFalse
)

// Not returns the lifted negation.
func (b LBool) Not() LBool {
	switch b {
	case LTrue:
		return LFalse
	case LFalse:
		return LTrue
	}
	return LUndef
}

// String renders the lifted Boolean.
func (b LBool) String() string {
	switch b {
	case LTrue:
		return "true"
	case LFalse:
		return "false"
	}
	return "undef"
}

// Stats aggregates solver counters; exposed for benchmark reporting.
type Stats struct {
	Decisions     int64
	Propagations  int64
	Conflicts     int64
	Restarts      int64
	Learnt        int64
	DeletedLearnt int64
	SolveCalls    int64
	// ClausesSubsumed counts clauses deleted or strengthened by the
	// inprocessing subsumption/self-subsumption pass.
	ClausesSubsumed int64
	// ProbedLiterals counts level-0 failed-literal probes performed.
	ProbedLiterals int64
	// FailedLiterals counts probes that derived a new level-0 unit.
	FailedLiterals int64
	// ArenaCompactions counts mark-and-relocate passes over the clause
	// arena.
	ArenaCompactions int64
}

// Add sums o into s field by field.
func (s *Stats) Add(o Stats) {
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Conflicts += o.Conflicts
	s.Restarts += o.Restarts
	s.Learnt += o.Learnt
	s.DeletedLearnt += o.DeletedLearnt
	s.SolveCalls += o.SolveCalls
	s.ClausesSubsumed += o.ClausesSubsumed
	s.ProbedLiterals += o.ProbedLiterals
	s.FailedLiterals += o.FailedLiterals
	s.ArenaCompactions += o.ArenaCompactions
}
