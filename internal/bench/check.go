package bench

import (
	"absolver/internal/lustre"
	"absolver/internal/steering"
)

// ---------------------------------------------------------------------------
// Model-checking instances (not a paper table).
//
// The model checker's workload is the paper's steering case study converted
// through the full Simulink → Lustre chain, checked by BMC + k-induction.

// CheckInstance is one model for the model checker.
type CheckInstance struct {
	Name string
	// Depth is the unrolling bound handed to the checker.
	Depth int
	// Build parses/converts the model into the checker's input.
	Build func() (*lustre.Program, error)
	// Property names the flow to verify ("" = sole Boolean output).
	Property string
	// Bounds restricts numeric inputs (the steering sensor ranges).
	Bounds map[string][2]float64
}

// CheckInstances returns the model-checking instances.
func CheckInstances() []CheckInstance {
	return []CheckInstance{
		{
			// The paper's verification question is the reachability of the
			// critical driving situation, which the checker poses as
			// falsifying the safety property "the scenario never occurs":
			// the counterexample is exactly the case study's test vector.
			Name: "steering", Depth: 1, Property: "ok",
			Build:  steeringSafety,
			Bounds: steering.SensorBounds(),
		},
	}
}

// steeringSafety converts the steering case study and adds the safety
// property ok = not CriticalScenario, so falsifying "G ok" asks the
// paper's question (is the critical situation reachable?).
func steeringSafety() (*lustre.Program, error) {
	prog, err := lustre.FromSimulink(steering.Model())
	if err != nil {
		return nil, err
	}
	n := prog.Main()
	n.Outputs = append(n.Outputs, lustre.VarDecl{Name: "ok", Type: lustre.TBool})
	n.Equations = append(n.Equations, lustre.Equation{
		Target: "ok",
		Rhs:    lustre.Unary{Op: "not", X: lustre.Ref{Name: "CriticalScenario"}},
	})
	return prog, nil
}
