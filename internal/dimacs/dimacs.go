// Package dimacs implements ABsolver's input language (Sec. 1.1, Fig. 2):
// standard DIMACS CNF extended, inside comment lines, with bindings of
// Boolean variables to arithmetic constraints —
//
//	c def int|real <var> <atom>
//
// — plus the tool extension
//
//	c bound <name> <lo> <hi>
//
// declaring background variable ranges (used for the case study's sensor
// ranges). Because every extension lives in comment lines, the files remain
// "still understood by any Boolean solver not aware of the extensions".
//
// A variable may carry several def lines (the paper's Fig. 2 binds both
// i ≥ 0 and j ≥ 0 to variable 1): the conjunction semantics is realised by
// fresh auxiliary variables v₁..vₖ with v ↔ v₁ ∧ … ∧ vₖ clauses, keeping
// the engine's one-atom-per-variable invariant while preserving the
// problem's models on the original variables.
package dimacs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"absolver/internal/core"
	"absolver/internal/expr"
)

// Parse reads an extended DIMACS problem. It is ParseLimited under the
// package's default (generous) resource caps.
func Parse(r io.Reader) (*core.Problem, error) {
	return ParseLimited(r, Limits{})
}

// ParseLimited reads an extended DIMACS problem from untrusted input under
// explicit resource caps (zero fields select the package defaults).
// Exceeding a cap returns an error matching the corresponding typed
// sentinel (ErrInputTooLarge, ErrLineTooLong, ErrTooManyClauses,
// ErrTooManyVars) via errors.Is.
func ParseLimited(r io.Reader, lim Limits) (*core.Problem, error) {
	lim = lim.withDefaults()
	p := core.NewProblem()
	// One byte beyond the cap distinguishes "exactly at the limit" from
	// "over it": the reader runs dry with lr.N == 0 only in the latter case.
	lr := &io.LimitedReader{R: r, N: lim.MaxBytes + 1}
	sc := bufio.NewScanner(lr)
	// The scanner's token cap is max(cap(buf), limit), so the initial
	// buffer must not exceed the configured line limit.
	initial := 1 << 16
	if initial > lim.MaxLineBytes {
		initial = lim.MaxLineBytes
	}
	sc.Buffer(make([]byte, 0, initial), lim.MaxLineBytes)

	sawHeader := false
	declaredVars := 0
	var pending []int
	// defs collects def lines per 1-based variable, applied after reading.
	defs := map[int][]expr.Atom{}
	lineNo := 0

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "c"):
			rest := strings.TrimSpace(strings.TrimPrefix(line, "c"))
			fields := strings.Fields(rest)
			// A "def" or "bound" keyword with the wrong arity is a truncated
			// or malformed extension line, not a free comment: treating it as
			// the latter would silently drop a binding or a bound.
			if len(fields) > 0 && fields[0] == "def" && len(fields) < 3 {
				return nil, fmt.Errorf("dimacs: line %d: truncated def line", lineNo)
			}
			if len(fields) > 0 && fields[0] == "bound" && len(fields) != 4 {
				return nil, fmt.Errorf("dimacs: line %d: malformed bound line (want: bound <name> <lo> <hi>)", lineNo)
			}
			if len(fields) >= 3 && fields[0] == "def" {
				dom := expr.Real
				switch fields[1] {
				case "int":
					dom = expr.Int
				case "real":
					dom = expr.Real
				default:
					return nil, fmt.Errorf("dimacs: line %d: bad domain %q", lineNo, fields[1])
				}
				v, err := strconv.Atoi(fields[2])
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("dimacs: line %d: bad def variable %q", lineNo, fields[2])
				}
				if v > lim.MaxVars {
					return nil, fmt.Errorf("dimacs: line %d: def variable %d: %w", lineNo, v, ErrTooManyVars)
				}
				atomSrc := strings.TrimSpace(rest[strings.Index(rest, fields[2])+len(fields[2]):])
				a, err := expr.ParseAtom(atomSrc, dom)
				if err != nil {
					return nil, fmt.Errorf("dimacs: line %d: %v", lineNo, err)
				}
				defs[v] = append(defs[v], a)
				continue
			}
			if len(fields) == 4 && fields[0] == "bound" {
				lo, err1 := strconv.ParseFloat(fields[2], 64)
				hi, err2 := strconv.ParseFloat(fields[3], 64)
				// !(lo <= hi) also rejects NaN, which every comparison fails.
				if err1 != nil || err2 != nil || !(lo <= hi) {
					return nil, fmt.Errorf("dimacs: line %d: bad bound", lineNo)
				}
				p.SetBounds(fields[1], lo, hi)
				continue
			}
			if rest != "" {
				p.Comments = append(p.Comments, rest)
			}
			continue
		case strings.HasPrefix(line, "p"):
			if sawHeader {
				return nil, fmt.Errorf("dimacs: line %d: duplicate problem line", lineNo)
			}
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("dimacs: line %d: malformed problem line", lineNo)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 {
				return nil, fmt.Errorf("dimacs: line %d: bad variable count", lineNo)
			}
			if nv > lim.MaxVars {
				return nil, fmt.Errorf("dimacs: line %d: %d variables: %w", lineNo, nv, ErrTooManyVars)
			}
			declaredVars = nv
			if nv > p.NumVars {
				p.NumVars = nv
			}
			sawHeader = true
			continue
		default:
			for _, tok := range strings.Fields(line) {
				n, err := strconv.Atoi(tok)
				if err != nil {
					return nil, fmt.Errorf("dimacs: line %d: bad literal %q", lineNo, tok)
				}
				if n == 0 {
					if len(pending) == 0 {
						return nil, fmt.Errorf("dimacs: line %d: empty clause", lineNo)
					}
					if len(p.Clauses) >= lim.MaxClauses {
						return nil, fmt.Errorf("dimacs: line %d: %w", lineNo, ErrTooManyClauses)
					}
					p.AddClause(pending...)
					pending = nil
					continue
				}
				if n > lim.MaxVars || -n > lim.MaxVars {
					return nil, fmt.Errorf("dimacs: line %d: literal %d: %w", lineNo, n, ErrTooManyVars)
				}
				pending = append(pending, n)
			}
		}
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("dimacs: line %d: %w", lineNo+1, ErrLineTooLong)
		}
		return nil, err
	}
	if lr.N <= 0 {
		return nil, fmt.Errorf("dimacs: after %d bytes: %w", lim.MaxBytes, ErrInputTooLarge)
	}
	if len(pending) > 0 {
		if len(p.Clauses) >= lim.MaxClauses {
			return nil, fmt.Errorf("dimacs: line %d: %w", lineNo, ErrTooManyClauses)
		}
		p.AddClause(pending...)
	}
	if !sawHeader {
		return nil, fmt.Errorf("dimacs: missing problem line")
	}
	_ = declaredVars

	// Apply defs; multi-def variables get fresh conjunct variables.
	vars := make([]int, 0, len(defs))
	for v := range defs {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	for _, v := range vars {
		atoms := defs[v]
		if v > p.NumVars {
			p.NumVars = v
		}
		if len(atoms) == 1 {
			p.Bind(v-1, atoms[0])
			continue
		}
		// v ↔ v₁ ∧ … ∧ vₖ with fresh vᵢ bound to each atom.
		fresh := make([]int, len(atoms))
		for i, a := range atoms {
			p.NumVars++
			fresh[i] = p.NumVars
			p.Bind(fresh[i]-1, a)
		}
		long := make([]int, 0, len(fresh)+1)
		long = append(long, v)
		for _, f := range fresh {
			p.AddClause(-v, f) // v → vᵢ
			long = append(long, -f)
		}
		p.AddClause(long...) // (∧vᵢ) → v
	}
	return p, nil
}

// ParseString parses an extended DIMACS problem from a string.
func ParseString(s string) (*core.Problem, error) {
	return Parse(strings.NewReader(s))
}

// Write renders the problem in extended DIMACS form. Bindings become def
// lines, bounds become bound lines, free comments are preserved.
func Write(w io.Writer, p *core.Problem) error {
	bw := bufio.NewWriter(w)
	for _, c := range p.Comments {
		if _, err := fmt.Fprintf(bw, "c %s\n", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", p.NumVars, len(p.Clauses)); err != nil {
		return err
	}
	for _, cl := range p.Clauses {
		for _, l := range cl {
			if _, err := fmt.Fprintf(bw, "%d ", l); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	vars := make([]int, 0, len(p.Bindings))
	for v := range p.Bindings {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	for _, v := range vars {
		a := p.Bindings[v]
		if _, err := fmt.Fprintf(bw, "c def %s %d %s\n", a.Domain, v+1, a.String()); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(p.Bounds))
	for n := range p.Bounds {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		iv := p.Bounds[n]
		if _, err := fmt.Fprintf(bw, "c bound %s %g %g\n", n, iv.Lo, iv.Hi); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteString renders the problem to a string.
func WriteString(p *core.Problem) (string, error) {
	var sb strings.Builder
	if err := Write(&sb, p); err != nil {
		return "", err
	}
	return sb.String(), nil
}
