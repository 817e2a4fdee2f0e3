package dimacs

import (
	"strings"
	"testing"

	"absolver/internal/core"
	"absolver/internal/expr"
)

// fig2 is the verbatim input of the paper's Fig. 2, plus bound extensions
// so the nonlinear search is box-constrained.
const fig2 = `p cnf 4 3
1 0
-2 3 0
4 0
c def int 1 i >= 0
c def int 1 j >= 0
c def int 2 2*i + j < 10
c def int 3 i + j < 5
c a free comment line between defs
c def real 4 a * x + 3.5 / ( 4 - y ) + 2 * y >= 7.1
`

// Note: the original Fig. 2 wraps the long def over two physical lines for
// typesetting; our format requires one def per line, so the constant uses
// the single-line form (a free comment exercises comment tolerance).

func TestParseFig2(t *testing.T) {
	p, err := ParseString(fig2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clauses) < 3 {
		t.Fatalf("clauses = %d", len(p.Clauses))
	}
	// Variable 1 had two defs → two fresh conjunct variables were added.
	if p.NumVars < 6 {
		t.Fatalf("NumVars = %d, want ≥ 6 (4 + 2 fresh)", p.NumVars)
	}
	// Variable 4's def is nonlinear... but the broken fragment line must
	// have been rejected as a def; ensure exactly one binding mentions 'a'.
	nl := 0
	for _, a := range p.Bindings {
		if !expr.IsLinear(a) {
			nl++
		}
	}
	if nl != 1 {
		t.Fatalf("nonlinear bindings = %d, want 1", nl)
	}
}

func TestParseFig2BrokenDefRejected(t *testing.T) {
	// A def line whose expression is cut off must produce an error.
	src := "p cnf 1 1\n1 0\nc def real 1 a * x + 3.5 / ( 4 - y ) +\n"
	if _, err := ParseString(src); err == nil {
		t.Fatal("truncated def accepted")
	}
}

func TestParseSolveFig2EndToEnd(t *testing.T) {
	p, err := ParseString(fig2 + "c bound a -10 10\nc bound x -10 10\nc bound y -10 3.9\nc bound i -100 100\nc bound j -100 100\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(p, core.Config{}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusSat {
		t.Fatalf("Fig. 2 problem should be sat, got %v", res.Status)
	}
	if err := p.Check(*res.Model); err != nil {
		t.Fatal(err)
	}
	// Paper semantics: i,j ≥ 0 (var 1 true), and the nonlinear constraint
	// holds (var 4 true).
	m := res.Model
	if m.Real["i"] < 0 || m.Real["j"] < 0 {
		t.Fatalf("i=%g j=%g", m.Real["i"], m.Real["j"])
	}
}

func TestMultiDefConjunctionSemantics(t *testing.T) {
	// var 1 ⇔ (x ≥ 1 ∧ x ≤ 0) is unsatisfiable when 1 is forced.
	src := `p cnf 1 1
1 0
c def real 1 x >= 1
c def real 1 x <= 0
`
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(p, core.Config{}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusUnsat {
		t.Fatalf("status = %v, want unsat", res.Status)
	}
	// Negated multi-def: ¬1 means ¬(x≥1 ∧ x≤0) — satisfiable.
	src2 := strings.Replace(src, "1 0", "-1 0", 1)
	p2, err := ParseString(src2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := core.NewEngine(p2, core.Config{}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != core.StatusSat {
		t.Fatalf("negated conjunction should be sat, got %v", res2.Status)
	}
}

func TestBoundLines(t *testing.T) {
	src := "p cnf 1 1\n1 0\nc def real 1 x >= 0\nc bound x -5 5\n"
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	iv, ok := p.Bounds["x"]
	if !ok || iv.Lo != -5 || iv.Hi != 5 {
		t.Fatalf("bounds = %v", p.Bounds)
	}
	// An inverted bound, and a NaN bound that no lo > hi test catches.
	for _, src := range []string{
		"p cnf 1 1\n1 0\nc bound x 5 -5\n",
		"p cnf 1 1\n1 0\nc def real 1 x >= 5\nc bound x NaN 1\n",
	} {
		if _, err := ParseString(src); err == nil {
			t.Fatalf("bad bound accepted: %q", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                   // no header
		"p cnf x 1\n1 0\n",                   // bad var count
		"p cnf 1 1\np cnf 1 1\n1 0\n",        // duplicate header
		"p cnf 1 1\n1 z 0\n",                 // bad literal
		"p cnf 1 1\n0\n",                     // empty clause
		"p cnf 1 1\n1 0\nc def bool 1 x>0\n", // bad domain
		"p cnf 1 1\n1 0\nc def int 0 x>0\n",  // bad def var
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Fatalf("accepted %q", src)
		}
	}
}

func TestPlainDIMACSStillParses(t *testing.T) {
	// Pure Boolean DIMACS without extensions.
	src := "c plain file\np cnf 3 2\n1 -2 0\n2 3 0\n"
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVars != 3 || len(p.Clauses) != 2 || len(p.Bindings) != 0 {
		t.Fatalf("parsed %d vars %d clauses %d bindings", p.NumVars, len(p.Clauses), len(p.Bindings))
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	p := core.NewProblem()
	p.AddClause(1, -2)
	p.AddClause(3)
	a1, _ := expr.ParseAtom("x + y <= 4", expr.Real)
	a2, _ := expr.ParseAtom("2*i > 3", expr.Int)
	p.Bind(0, a1)
	p.Bind(2, a2)
	p.SetBounds("x", -1, 1)
	p.Comments = append(p.Comments, "round-trip test")

	s, err := WriteString(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseString(s)
	if err != nil {
		t.Fatalf("%v\nin:\n%s", err, s)
	}
	if q.NumVars != p.NumVars || len(q.Clauses) != len(p.Clauses) || len(q.Bindings) != len(p.Bindings) {
		t.Fatalf("shape mismatch after round trip:\n%s", s)
	}
	for v, a := range p.Bindings {
		b, ok := q.Bindings[v]
		if !ok || a.String() != b.String() || a.Domain != b.Domain {
			t.Fatalf("binding %d mismatch: %v vs %v", v, a, b)
		}
	}
	if q.Bounds["x"] != p.Bounds["x"] {
		t.Fatal("bounds lost")
	}
}

func TestClauseSpanningLines(t *testing.T) {
	src := "p cnf 3 1\n1 2\n3 0\n"
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clauses) != 1 || len(p.Clauses[0]) != 3 {
		t.Fatalf("clauses = %v", p.Clauses)
	}
}

func TestTrailingClauseWithoutZero(t *testing.T) {
	src := "p cnf 2 1\n1 2\n"
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clauses) != 1 {
		t.Fatalf("clauses = %v", p.Clauses)
	}
}
