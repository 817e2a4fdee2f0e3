package mc

import (
	"context"
	"testing"

	"absolver/internal/core"
	"absolver/internal/expr"
	"absolver/internal/nlp"
)

// undecidedNonlinear leaves every nonlinear check undecided, sending each
// one to the PolyAR fallback.
type undecidedNonlinear struct{}

func (undecidedNonlinear) Name() string { return "undecided" }

func (undecidedNonlinear) Check(context.Context, []expr.Atom, expr.Box, expr.Env) core.NonlinearVerdict {
	return core.NonlinearVerdict{Status: nlp.Unknown}
}

// TestCheckColdReportsNonlinearStats pins the cold path's stats
// aggregation: at depth 0 a cold run does exactly the warm run's work, so
// its nonlinear-unknown and PolyAR totals must match the warm run's.
func TestCheckColdReportsNonlinearStats(t *testing.T) {
	src := `node m(x: real; y: real) returns (ok: bool);
let ok = not (x * y >= 2.0 and x + y <= 4.0); tel;`
	run := func(cold bool) core.Stats {
		t.Helper()
		res, err := Check(context.Background(), parse(t, src), Options{
			MaxDepth:    0,
			Cold:        cold,
			InputBounds: map[string][2]float64{"x": {0, 2}, "y": {0, 2}},
			Config:      &core.Config{Nonlinear: undecidedNonlinear{}, CheckModels: true},
		})
		if err != nil || res.Verdict != Falsified {
			t.Fatalf("cold=%v: verdict %s, err %v", cold, res.Verdict, err)
		}
		return res.Stats
	}
	warm, cold := run(false), run(true)
	if warm.NLPUnknown == 0 || warm.NLPUnknownRescued == 0 || warm.PolyARRegions == 0 || warm.PolyARWitnesses == 0 {
		t.Fatalf("warm run did not exercise the PolyAR fallback: %+v", warm)
	}
	for _, f := range []struct {
		name       string
		warm, cold int
	}{
		{"NLPUnknown", warm.NLPUnknown, cold.NLPUnknown},
		{"NLPUnknownRescued", warm.NLPUnknownRescued, cold.NLPUnknownRescued},
		{"PolyARRegions", warm.PolyARRegions, cold.PolyARRegions},
		{"PolyARPruned", warm.PolyARPruned, cold.PolyARPruned},
		{"PolyARWitnesses", warm.PolyARWitnesses, cold.PolyARWitnesses},
	} {
		if f.cold != f.warm {
			t.Errorf("cold %s = %d, warm %d", f.name, f.cold, f.warm)
		}
	}
}
