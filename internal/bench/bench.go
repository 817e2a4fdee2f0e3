// Package bench assembles the paper's evaluation (Sec. 5): the instance
// builders and runners that regenerate Tables 1-3 for the abbench command,
// plus the instance catalogs (Table1Instances, CheckInstances) that the
// repository-level Go benchmarks and the perfbench harness measure. Each
// Run function returns structured rows, and each Format function renders
// them in the layout of the corresponding table.
package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"absolver/internal/baseline"
	"absolver/internal/core"
	"absolver/internal/dimacs"
	"absolver/internal/fischer"
	"absolver/internal/smtlib"
	"absolver/internal/steering"
	"absolver/internal/sudoku"
)

// ---------------------------------------------------------------------------
// Table 1: nonlinear problems.

// esatN11M8 is the esat_n11_m8_nonlinear benchmark: 11 clauses, 8 Boolean
// variables, 9 linear and 2 nonlinear constraints — a small embedded
// saturation check. The dimensions match the paper's row exactly.
const esatN11M8 = `c esat_n11_m8_nonlinear
p cnf 8 11
1 0
2 0
3 0
4 0
8 0
5 6 0
-5 7 0
-6 7 0
5 -7 6 0
7 0
-5 -6 7 0
c def real 1 u >= 0
c def real 2 u <= 10
c def real 3 w >= 1
c def real 4 w <= 5
c def real 5 u + w <= 12
c def real 5 u - w >= -6
c def real 6 u - w >= -4
c def real 7 2*u + 3*w <= 30
c def real 7 u + 2*w >= 2
c def real 8 u * w >= 6
c def real 8 u * w <= 20
c bound u -100 100
c bound w -100 100
`

// nonlinearUnsat is the nonlinear_unsat benchmark: a single Boolean
// variable bound to the contradictory conjunction x² ≥ 1 ∧ x² ≤ 0.5.
const nonlinearUnsat = `c nonlinear_unsat
p cnf 1 1
1 0
c def real 1 x * x >= 1
c def real 1 x * x <= 0.5
c bound x -1000 1000
`

// divOperator is the div_operator benchmark: 4 linear range constraints
// plus one constraint using the division operator (the extension the paper
// reports took "less than an hour of programming effort").
const divOperator = `c div_operator
p cnf 1 1
1 0
c def real 1 y >= 0
c def real 1 y <= 10
c def real 1 z >= 1
c def real 1 z <= 5
c def real 1 y / z = 2
c bound y -100 100
c bound z 0.5 100
`

// Table1Instance is one row's workload.
type Table1Instance struct {
	Name string
	// Declared dimensions (as in the paper's table: input clauses and
	// variables, linear and nonlinear constraint counts).
	Clauses, Vars, Linear, Nonlinear int
	Build                            func() (*core.Problem, error)
	// Want is the expected verdict (sanity check).
	Want core.Status
}

// Table1Instances returns the four workloads of Table 1.
func Table1Instances() []Table1Instance {
	fromDIMACS := func(src string) func() (*core.Problem, error) {
		return func() (*core.Problem, error) { return dimacs.ParseString(src) }
	}
	return []Table1Instance{
		{
			Name: "Car steering", Clauses: 964, Vars: 24, Linear: 4, Nonlinear: 20,
			Build: steering.Problem, Want: core.StatusSat,
		},
		{
			Name: "esat_n11_m8_nonlinear", Clauses: 11, Vars: 8, Linear: 9, Nonlinear: 2,
			Build: fromDIMACS(esatN11M8), Want: core.StatusSat,
		},
		{
			Name: "nonlinear_unsat", Clauses: 1, Vars: 1, Linear: 0, Nonlinear: 2,
			Build: fromDIMACS(nonlinearUnsat), Want: core.StatusUnsat,
		},
		{
			Name: "div_operator", Clauses: 1, Vars: 1, Linear: 4, Nonlinear: 1,
			Build: fromDIMACS(divOperator), Want: core.StatusSat,
		},
	}
}

// Cell is one measured solver result.
type Cell struct {
	Time   time.Duration
	Status core.Status
	// Note marks abnormal outcomes: "rejected" (nonlinear), "timeout",
	// "OOM", or an error string.
	Note string
}

// String renders the cell in the paper's m'ss.mmm's style.
func (c Cell) String() string {
	if c.Note != "" {
		switch c.Note {
		case "OOM":
			return "–*" // the paper's out-of-memory marker
		case "rejected":
			return "rejected"
		case "timeout":
			return fmt.Sprintf(">%s (timeout)", fmtDur(c.Time))
		}
		return c.Note
	}
	return fmtDur(c.Time)
}

func fmtDur(d time.Duration) string {
	m := int(d.Minutes())
	s := d.Seconds() - float64(m)*60
	return fmt.Sprintf("%dm%06.3fs", m, s)
}

// Table1Row is one measured row of Table 1.
type Table1Row struct {
	Instance Table1Instance
	ABsolver Cell
	CVCLite  Cell
	MathSAT  Cell
}

// RunTable1 measures Table 1: ABsolver solves each nonlinear instance;
// both baselines reject them.
func RunTable1(timeout time.Duration) ([]Table1Row, error) {
	var rows []Table1Row
	for _, inst := range Table1Instances() {
		p, err := inst.Build()
		if err != nil {
			return nil, fmt.Errorf("bench: building %s: %w", inst.Name, err)
		}
		start := time.Now()
		res, err := core.NewEngine(p, core.Config{Timeout: timeout}).Solve()
		cell := Cell{Time: time.Since(start), Status: res.Status}
		if err != nil {
			if err == core.ErrTimeout {
				cell.Note = "timeout"
			} else {
				return nil, err
			}
		}
		row := Table1Row{Instance: inst, ABsolver: cell}
		row.CVCLite = runBaseline(&baseline.CVCLiteLike{Timeout: timeout}, p)
		row.MathSAT = runBaseline(&baseline.MathSATLike{Timeout: timeout}, p)
		rows = append(rows, row)
	}
	return rows, nil
}

type baselineSolver interface {
	Name() string
	Solve(*core.Problem) (baseline.Result, error)
}

func runBaseline(s baselineSolver, p *core.Problem) Cell {
	start := time.Now()
	r, err := s.Solve(p)
	cell := Cell{Time: time.Since(start), Status: r.Status}
	switch {
	case err == nil:
	case errors.Is(err, baseline.ErrNonlinear):
		cell.Note = "rejected"
	case errors.Is(err, baseline.ErrTimeout):
		cell.Note = "timeout"
	case errors.Is(err, baseline.ErrOutOfMemory):
		cell.Note = "OOM"
	default:
		cell.Note = err.Error()
	}
	return cell
}

// FormatTable1 renders the rows like the paper's Table 1 (plus the
// comparison columns' rejections).
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("Table 1. Results: nonlinear problems.\n")
	fmt.Fprintf(&sb, "%-24s %6s %6s %8s %9s  %-14s %-10s %-10s\n",
		"Benchmark", "#Cl.", "#Var.", "#linear", "#nonlin.", "ABSOLVER", "CVC Lite", "MathSAT")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-24s %6d %6d %8d %9d  %-14s %-10s %-10s\n",
			r.Instance.Name, r.Instance.Clauses, r.Instance.Vars,
			r.Instance.Linear, r.Instance.Nonlinear,
			r.ABsolver, r.CVCLite, r.MathSAT)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 2: SMT-LIB (Fischer) benchmarks.

// Table2Row is one measured row.
type Table2Row struct {
	Name     string
	N        int
	ABsolver Cell
	CVCLite  Cell
	MathSAT  Cell
}

// RunTable2 measures FISCHER1..maxN: each instance is generated, rendered
// to SMT-LIB, converted to ABsolver's format (the paper's pipeline), and
// solved by the three solvers. ABsolver runs in the paper's
// external-restart combination mode. The optional progress callback
// receives each row as soon as it is measured (long sweeps stream).
func RunTable2(maxN int, timeout time.Duration, progress ...func(Table2Row)) ([]Table2Row, error) {
	var rows []Table2Row
	for n := 1; n <= maxN; n++ {
		in := fischer.Generate(fischer.Params{N: n})
		b, err := smtlib.Parse(in.SMTLIB())
		if err != nil {
			return nil, fmt.Errorf("bench: FISCHER%d: %w", n, err)
		}

		row := Table2Row{Name: in.Name + ".smt", N: n}

		pA := b.ToProblem()
		start := time.Now()
		resA, errA := core.NewEngine(pA, core.Config{
			RestartBoolean: true,
			Bool:           core.NewExternalCDCLSolver(),
			Timeout:        timeout,
		}).Solve()
		row.ABsolver = Cell{Time: time.Since(start), Status: resA.Status}
		if errA == core.ErrTimeout {
			row.ABsolver.Note = "timeout"
		} else if errA != nil {
			return nil, errA
		}

		// The proof-memory budget is set to workstation scale (1 GiB —
		// Table 2's instances must run to completion as in the paper;
		// Table 3 models the published out-of-memory aborts with the
		// budget the harness passes there).
		row.CVCLite = runBaseline(&baseline.CVCLiteLike{Timeout: timeout, MemoryBudget: 1 << 30}, b.ToProblem())
		row.MathSAT = runBaseline(&baseline.MathSATLike{Timeout: timeout}, b.ToProblem())
		rows = append(rows, row)
		for _, cb := range progress {
			cb(row)
		}
	}
	return rows, nil
}

// FormatTable2 renders the rows like the paper's Table 2.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2. Results: SMT-LIB benchmarks.\n")
	fmt.Fprintf(&sb, "%-24s %-18s %-18s %-18s\n", "Benchmark", "ABSOLVER", "CVC Lite", "MathSAT")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-24s %-18s %-18s %-18s\n", r.Name, r.ABsolver, r.CVCLite, r.MathSAT)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 3: Sudoku puzzles.

// Table3Row is one measured row.
type Table3Row struct {
	Name     string
	ABsolver Cell
	CVCLite  Cell
	MathSAT  Cell
}

// Table3Options tune the run: the baselines get the era-typical arithmetic
// encoding under a timeout, CVCLiteLike additionally under a proof-memory
// budget (0 = 32 MiB, calibrated so the abort happens within seconds, as
// the paper's –∗ entries suggest for its 2006 machine).
type Table3Options struct {
	Timeout   time.Duration
	CVCMemory int64
}

// RunTable3 measures the ten puzzle instances. ABsolver uses the natural
// mixed Boolean-integer encoding (Sec. 5.3: "the encoding is more natural
// as it can make use of integers"); the comparison solvers receive the
// arithmetic translation their input languages support.
func RunTable3(opt Table3Options) ([]Table3Row, error) {
	if opt.Timeout == 0 {
		opt.Timeout = 60 * time.Second
	}
	if opt.CVCMemory == 0 {
		opt.CVCMemory = 32 << 20
	}
	var rows []Table3Row
	for _, inst := range sudoku.Puzzles() {
		row := Table3Row{Name: inst.Name}

		mixed := sudoku.EncodeMixed(&inst.Puzzle)
		start := time.Now()
		res, err := core.NewEngine(mixed, core.Config{Timeout: opt.Timeout}).Solve()
		row.ABsolver = Cell{Time: time.Since(start), Status: res.Status}
		if err == core.ErrTimeout {
			row.ABsolver.Note = "timeout"
		} else if err != nil {
			return nil, err
		}
		if res.Status == core.StatusSat {
			// Guard against nonsense timings: verify the solution.
			if g, err := sudoku.DecodeMixed(res.Model); err != nil {
				return nil, err
			} else if err := sudoku.Verify(&inst.Puzzle, g); err != nil {
				return nil, err
			}
		}

		arith := sudoku.EncodeArithmetic(&inst.Puzzle)
		row.CVCLite = runBaseline(&baseline.CVCLiteLike{
			Timeout: opt.Timeout, MemoryBudget: opt.CVCMemory,
		}, arith)
		arith2 := sudoku.EncodeArithmetic(&inst.Puzzle)
		row.MathSAT = runBaseline(&baseline.MathSATLike{Timeout: opt.Timeout}, arith2)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable3 renders the rows like the paper's Table 3.
func FormatTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3. Results: Sudoku puzzles.\n")
	fmt.Fprintf(&sb, "%-20s %-14s %-10s %-18s\n", "Benchmark", "ABSOLVER", "CVC Lite", "MathSAT")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-20s %-14s %-10s %-18s\n", r.Name, r.ABsolver, r.CVCLite, r.MathSAT)
	}
	return sb.String()
}
