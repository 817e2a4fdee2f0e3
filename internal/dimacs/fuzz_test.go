package dimacs

import "testing"

// FuzzParse exercises the extended-DIMACS parser with arbitrary input.
// Run with: go test -fuzz FuzzParse ./internal/dimacs
func FuzzParse(f *testing.F) {
	f.Add("p cnf 4 3\n1 0\n-2 3 0\n4 0\nc def int 1 i >= 0\n")
	f.Add("p cnf 1 1\n1 0\nc def real 1 a * x + 3.5 / ( 4 - y ) + 2 * y >= 7.1\nc bound a -10 10\n")
	f.Add("c comment only\n")
	f.Add("p cnf 1 1\n1 0\nc def real 1 x >= 5\nc bound x NaN 1\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParseString(src)
		if err != nil {
			return
		}
		// A successfully parsed problem must be structurally valid and
		// write/re-parse cleanly.
		if err := p.Validate(); err != nil {
			t.Fatalf("parsed problem invalid: %v\ninput: %q", err, src)
		}
		text, err := WriteString(p)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := ParseString(text); err != nil {
			t.Fatalf("re-parse of own output: %v\noutput: %q", err, text)
		}
	})
}
