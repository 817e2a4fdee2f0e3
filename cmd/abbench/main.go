// Command abbench regenerates the paper's evaluation tables (Sec. 5):
//
//	abbench -table 1            # nonlinear problems (Table 1)
//	abbench -table 2 -maxn 11   # SMT-LIB / Fischer benchmarks (Table 2)
//	abbench -table 3            # Sudoku puzzles (Table 3)
//	abbench -table all          # Tables 1-3
//
// Absolute times will differ from the 2006 publication (different hardware
// and reimplemented solvers); the shapes — who wins, who rejects, who runs
// out of memory — are the reproduction target (see EXPERIMENTS.md). The
// repeated, per-layer measurements live in the perfbench module.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"absolver/internal/bench"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1, 2, 3, or all")
	maxN := flag.Int("maxn", 11, "largest Fischer instance for table 2")
	timeout := flag.Duration("timeout", 120*time.Second, "per-solver timeout per instance")
	cvcMem := flag.Int64("cvc-mem", 32<<20, "CVCLiteLike proof-memory budget in bytes (table 3)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "abbench:", err)
		os.Exit(1)
	}

	run1 := func() {
		rows, err := bench.RunTable1(*timeout)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable1(rows))
	}
	run2 := func() {
		rows, err := bench.RunTable2(*maxN, *timeout, func(r bench.Table2Row) {
			fmt.Printf("# %-24s absolver=%-16s cvclite=%-16s mathsat=%-16s\n",
				r.Name, r.ABsolver, r.CVCLite, r.MathSAT)
		})
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable2(rows))
	}
	run3 := func() {
		rows, err := bench.RunTable3(bench.Table3Options{Timeout: *timeout, CVCMemory: *cvcMem})
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable3(rows))
	}

	switch *table {
	case "1":
		run1()
	case "2":
		run2()
	case "3":
		run3()
	case "all":
		run1()
		run2()
		run3()
	default:
		fmt.Fprintln(os.Stderr, "abbench: -table must be 1, 2, 3 or all")
		os.Exit(2)
	}
}
