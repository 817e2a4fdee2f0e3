package testkit

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"absolver/internal/core"
	"absolver/internal/steering"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// trajectorySeeds is how many FragNonlinear seeds the trajectory golden
// pins, next to the steering case study.
const trajectorySeeds = 64

const trajectoryGolden = "testdata/nonlinear_trajectory.golden"

// TestNonlinearTrajectoryGolden pins the penalty descent's trajectory:
// for steering and Generate(0..63, FragNonlinear), the verdict, the
// nonlinear solver's merit-evaluation count and a hash of the model's
// float bits must equal the golden file exactly. A change that only makes
// the descent faster must leave this file untouched; a change that means
// to move the trajectory regenerates it with
//
//	go test ./internal/testkit -run TestNonlinearTrajectoryGolden -update
func TestNonlinearTrajectoryGolden(t *testing.T) {
	type named struct {
		name string
		p    *core.Problem
	}
	sp, err := steering.Problem()
	if err != nil {
		t.Fatal(err)
	}
	probs := []named{{"steering", sp}}
	for seed := int64(0); seed < trajectorySeeds; seed++ {
		probs = append(probs, named{fmt.Sprintf("nonlinear/%d", seed), Generate(seed, FragNonlinear)})
	}
	var sb strings.Builder
	for _, pr := range probs {
		ps := &core.PenaltySolver{}
		res, err := core.NewEngine(pr.p, core.Config{Nonlinear: ps}).Solve()
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		fmt.Fprintf(&sb, "%s %v evals=%d model=%016x\n", pr.name, res.Status, ps.Evals, modelHash(res.Model))
	}
	got := sb.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(trajectoryGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trajectoryGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(trajectoryGolden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}

// modelHash is FNV-1a over the model's Boolean values and its real
// values' float bits, reals in name order; 0 for a nil model.
func modelHash(m *core.Model) uint64 {
	if m == nil {
		return 0
	}
	h := fnv.New64a()
	for _, b := range m.Bool {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	names := make([]string, 0, len(m.Real))
	for n := range m.Real {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s=%016x;", n, math.Float64bits(m.Real[n]))
	}
	return h.Sum64()
}
