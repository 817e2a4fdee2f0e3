// Command abconvert implements the paper's automated conversion work-flow
// (Fig. 3): it reads a system model — a Simulink-style block diagram, a
// mini-Lustre program, or an SMT-LIB 1.2 benchmark — and emits the
// equivalent AB problem in ABsolver's extended DIMACS format.
//
// Usage:
//
//	abconvert -simulink model.mdl [-bound name:lo:hi ...] > out.cnf
//	abconvert -lustre   node.lus  [-bound name:lo:hi ...] > out.cnf
//	abconvert -smtlib   bench.smt                         > out.cnf
//	abconvert -fig1                                       > out.cnf
//
// The -fig1 flag emits the paper's Fig. 1 example model, closing the loop
// Fig. 1 → Fig. 2 end-to-end. The intermediate Lustre text of the
// Simulink path can be inspected with -emit-lustre.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"absolver"
	"absolver/internal/core"
	"absolver/internal/lustre"
	"absolver/internal/simulink"
)

type boundFlags []string

func (b *boundFlags) String() string { return strings.Join(*b, ",") }
func (b *boundFlags) Set(s string) error {
	*b = append(*b, s)
	return nil
}

func main() {
	simulinkPath := flag.String("simulink", "", "block-diagram model file")
	lustrePath := flag.String("lustre", "", "mini-Lustre program file")
	smtlibPath := flag.String("smtlib", "", "SMT-LIB 1.2 benchmark file")
	fig1 := flag.Bool("fig1", false, "use the paper's Fig. 1 example model")
	emitLustre := flag.Bool("emit-lustre", false, "print the intermediate Lustre text instead of DIMACS")
	var bounds boundFlags
	flag.Var(&bounds, "bound", "variable bound name:lo:hi (repeatable)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "abconvert:", err)
		os.Exit(2)
	}

	selected := 0
	for _, s := range []bool{*simulinkPath != "", *lustrePath != "", *smtlibPath != "", *fig1} {
		if s {
			selected++
		}
	}
	if selected != 1 {
		fmt.Fprintln(os.Stderr, "abconvert: exactly one of -simulink, -lustre, -smtlib, -fig1 is required")
		os.Exit(2)
	}

	var p *core.Problem
	switch {
	case *fig1 || *simulinkPath != "":
		var m *simulink.Model
		if *fig1 {
			m = simulink.Fig1()
		} else {
			f, err := os.Open(*simulinkPath)
			if err != nil {
				fail(err)
			}
			m, err = simulink.ParseModel(f)
			f.Close()
			if err != nil {
				fail(err)
			}
		}
		prog, err := lustre.FromSimulink(m)
		if err != nil {
			fail(err)
		}
		if *emitLustre {
			fmt.Print(lustre.Format(prog))
			return
		}
		p, err = lustre.ExtractProblem(prog)
		if err != nil {
			fail(err)
		}
	case *lustrePath != "":
		data, err := os.ReadFile(*lustrePath)
		if err != nil {
			fail(err)
		}
		p, err = absolver.ParseLustre(string(data))
		if err != nil {
			fail(err)
		}
	case *smtlibPath != "":
		data, err := os.ReadFile(*smtlibPath)
		if err != nil {
			fail(err)
		}
		p, err = absolver.ParseSMTLIB(string(data))
		if err != nil {
			fail(err)
		}
	}

	for _, b := range bounds {
		parts := strings.Split(b, ":")
		if len(parts) != 3 {
			fail(fmt.Errorf("bad -bound %q (want name:lo:hi)", b))
		}
		lo, err1 := strconv.ParseFloat(parts[1], 64)
		hi, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil || !(lo <= hi) { // rejects NaN too
			fail(fmt.Errorf("bad -bound %q", b))
		}
		p.SetBounds(parts[0], lo, hi)
	}

	if err := absolver.WriteDIMACS(os.Stdout, p); err != nil {
		fail(err)
	}
}
