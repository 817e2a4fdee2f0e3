package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"absolver/internal/core"
	"absolver/internal/dimacs"
	"absolver/internal/server/api"
	"absolver/internal/server/client"
	"absolver/internal/sudoku"
	"absolver/internal/testkit"
)

func methodNames(v any) []string {
	t := reflect.TypeOf(v)
	out := make([]string, t.NumMethod())
	for i := range out {
		out[i] = t.Method(i).Name
	}
	return out
}

// The engine type-asserts optional solver methods, so a wrapper must
// expose exactly the method set of the solver it wraps.
func TestWrappersKeepMethodSets(t *testing.T) {
	for _, c := range []struct{ wrapper, inner any }{
		{&cdclTimer{}, core.NewCDCLSolver()},
		{&externalTimer{}, core.NewExternalCDCLSolver()},
		{&linearTimer{}, core.NewSimplexSolver()},
		{&nonlinearTimer{}, core.NewPenaltySolver()},
	} {
		if got, want := methodNames(c.wrapper), methodNames(c.inner); !reflect.DeepEqual(got, want) {
			t.Errorf("%T methods %v, %T has %v", c.wrapper, got, c.inner, want)
		}
	}
}

// counters is what must not change when the plug-ins are wrapped.
type counters struct {
	status                              string
	theoryChecks, iterations, conflicts int
	satConflicts, regions, nlpUnknown   int64
}

func runWrapped(j job, wrapped bool) counters {
	tot := &layerCounts{}
	p := probe{inst: 1, tot: tot}
	if wrapped {
		p.tr = newTracer()
	}
	o := j.run(p)
	e := tot.eng
	return counters{
		status:       o.status,
		theoryChecks: e.LinearChecks + e.NonlinearChecks,
		iterations:   e.Iterations,
		conflicts:    e.ConflictClauses,
		satConflicts: tot.sat.Conflicts,
		regions:      int64(e.PolyARRegions),
		nlpUnknown:   int64(e.NLPUnknown),
	}
}

// On the smallest instances of the sequential workloads, wrapped and
// unwrapped runs give the same verdicts and the same counters.
func TestWrappedRunsMatchUnwrapped(t *testing.T) {
	var jobs []job
	// A generated problem on which PolyAR refines a few regions.
	gen := testkit.Generate(127, testkit.FragNonlinear)
	jobs = append(jobs, solveJob("generated/127", false, gen, "", oracleVerdict(gen)))
	nw, err := setupNonlinear(1)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, findJob(t, nw, "div_operator"))
	fw, err := setupFischer(1)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, findJob(t, fw, "FISCHER1/restart"), findJob(t, fw, "FISCHER1/incremental"))
	cw, err := setupCheck(1)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, findJob(t, cw, "steering"))

	sawRegions := false
	for _, j := range jobs {
		plain, wrapped := runWrapped(j, false), runWrapped(j, true)
		if plain != wrapped {
			t.Errorf("%s: unwrapped %+v, wrapped %+v", j.name, plain, wrapped)
		}
		if plain.theoryChecks == 0 {
			t.Errorf("%s: no theory checks; the instance does not exercise the plug-ins", j.name)
		}
		sawRegions = sawRegions || plain.regions > 0
	}
	if !sawRegions {
		t.Error("no instance exercised PolyAR")
	}
}

func findJob(t *testing.T, w workload, name string) job {
	t.Helper()
	for _, j := range w.(*sequential).jobs {
		if j.name == name {
			return j
		}
	}
	t.Fatalf("no job %s", name)
	return job{}
}

// The traced server (timing plug-ins behind Config.SolveFunc) answers a
// small problem and a Sudoku puzzle exactly like the default server.
func TestTracedServerMatchesDefault(t *testing.T) {
	puzzle := sudoku.GeneratePuzzle(7, sudokuGivens)
	var texts []string
	for _, p := range []*core.Problem{testkit.Generate(3, testkit.FragMixedInt), sudoku.EncodeMixed(&puzzle)} {
		text, err := dimacs.WriteString(p)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, text)
	}
	solve := func(tr *tracer) []api.Stats {
		b, err := boot(tr, &layerCounts{})
		if err != nil {
			t.Fatal(err)
		}
		defer b.stop()
		cl := client.New(b.url)
		var out []api.Stats
		for _, text := range texts {
			resp, err := cl.Solve(context.Background(), text, api.SolveParams{})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != "sat" {
				t.Fatalf("status %s", resp.Status)
			}
			st := resp.Stats
			st.BoolMS, st.LinearMS, st.NonlinearMS, st.WallMS = 0, 0, 0, 0
			out = append(out, st)
		}
		return out
	}
	if plain, traced := solve(nil), solve(newTracer()); !reflect.DeepEqual(plain, traced) {
		t.Errorf("default server stats %+v, traced %+v", plain, traced)
	}
}

// The same seed gives byte-identical inputs; another seed changes them.
// Generation is part of set-up, which finishes before any pass is timed.
func TestInputsAreSeeded(t *testing.T) {
	for name, setup := range setups {
		inputs := func(seed int64) []string {
			w, err := setup(seed)
			if err != nil {
				t.Fatal(err)
			}
			return w.inputs()
		}
		a, b := inputs(5), inputs(5)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 5 gave different inputs on two set-ups", name)
		}
		changed := false
		for seed := int64(6); seed < 10 && !changed; seed++ {
			changed = !reflect.DeepEqual(a, inputs(seed))
		}
		if !changed {
			t.Errorf("%s: seeds 6-9 give the inputs of seed 5", name)
		}
	}
}

// The fixed-set workloads draw only their order from the seed; served
// draws its requests.
func TestSeedDrawsInstances(t *testing.T) {
	sorted := func(setup func(int64) (workload, error), seed int64) []string {
		w, err := setup(seed)
		if err != nil {
			t.Fatal(err)
		}
		in := w.inputs()
		sort.Strings(in)
		return in
	}
	for _, name := range []string{"nonlinear", "fischer", "check"} {
		if !reflect.DeepEqual(sorted(setups[name], 5), sorted(setups[name], 6)) {
			t.Errorf("%s: instance set depends on the seed", name)
		}
	}
	if reflect.DeepEqual(sorted(setups["served"], 5), sorted(setups["served"], 6)) {
		t.Error("served: seeds 5 and 6 draw the same requests")
	}
}

// BENCHMARK.json lists exactly the catalog's workloads (less the dropped
// ones) and metrics, with the same units and directions.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var wantWorkloads, gotWorkloads []string
	for _, w := range cat.Workloads {
		if _, ok := setups[w.Name]; !ok {
			t.Errorf("catalog workload %s has no set-up", w.Name)
		}
		if w.Dropped == "" {
			wantWorkloads = append(wantWorkloads, w.Name)
		}
	}
	for _, w := range b.Workloads {
		gotWorkloads = append(gotWorkloads, w.Name)
	}
	if !reflect.DeepEqual(gotWorkloads, wantWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, catalog %v", gotWorkloads, wantWorkloads)
	}
	want := map[string][]metric{}
	e2e := map[string]bool{}
	for _, m := range cat.Metrics {
		want[m.Kind] = append(want[m.Kind], metric{m.Name, m.Unit, m.Better})
		if m.Kind == "end_to_end" {
			e2e[m.Name] = true
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, want["end_to_end"]) {
		t.Errorf("end_to_end differs from the catalog:\n%v\n%v", b.EndToEnd, want["end_to_end"])
	}
	if !reflect.DeepEqual(b.PerLayer, want["per_layer"]) {
		t.Errorf("per_layer differs from the catalog:\n%v\n%v", b.PerLayer, want["per_layer"])
	}
	for _, m := range cat.Metrics {
		for _, mv := range m.Moves {
			if !e2e[mv.Metric] || setups[mv.Workload] == nil {
				t.Errorf("%s moves unknown (%s, %s)", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
}

// The program measures exactly the catalog's metrics of each kind.
func TestMeasuredMetricsMatchCatalog(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	pass := []passStats{{wall: 1, jobs: 1}}
	measured := map[string]map[string]float64{
		"end_to_end": endToEnd(pass, nil),
		"per_layer":  perLayer(pass, pass, nil, &layerCounts{}),
	}
	for kind, values := range measured {
		var got, want []string
		for name := range values {
			got = append(got, name)
		}
		for _, m := range cat.Metrics {
			if m.Kind == kind {
				want = append(want, m.Name)
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: measured %v, catalog %v", kind, got, want)
		}
	}
}

func TestQuantileIsPythonInclusive(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	// statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive")
	for q, want := range map[float64]float64{0.25: 1.75, 0.5: 2.5, 0.75: 3.25, 0.9: 3.7} {
		if got := quantile(xs, q); got < want-1e-12 || got > want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
