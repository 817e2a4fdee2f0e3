// Command perfbench is ABsolver's outside-in benchmark. It builds a seeded
// workload, sets it up several times (set-up time is a metric of its own),
// then repeats passes over the workload's inputs for the given number of
// seconds and checks every verdict against an independent reference
// outside the timed windows.
//
// With -trace 0 every pass is untraced and the end-to-end metrics are
// printed. With -trace 1 one untraced pass is followed by traced passes,
// in which the solver plug-ins run behind timing wrappers, model-checking
// phases and served requests are recorded as spans, and the per-layer
// metrics are printed; the spans are written to -out.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"cpu_s": {"value": 1.2, "unit": "s"}, ...}}
//
// Usage:
//
//	perfbench -workload nonlinear|fischer|check|served -seed N -seconds S -trace 0|1 [-out DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is a set-up workload: pass runs every input once and verifies
// the verdicts afterwards; a nil tracer means an untraced pass.
type workload interface {
	pass(tr *tracer, tot *layerCounts) passStats
	// inputs renders the inputs as the solver reads them, in run order.
	inputs() []string
}

var setups = map[string]func(seed int64) (workload, error){
	"nonlinear": setupNonlinear,
	"fischer":   setupFischer,
	"check":     setupCheck,
	"served":    setupServed,
}

// Set-up runs at least minSetups times and until it has taken a second
// in total (at most maxSetups times); setup_s is the median of its CPU
// times.
const (
	minSetups = 5
	maxSetups = 51
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: nonlinear, fischer, check or served")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "how long to repeat passes")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := flag.String("out", ".", "directory for the spans of a traced run")
	commit := flag.String("commit", "unknown", "commit or source digest to record")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *out, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out, commit string) error {
	cat, err := loadCatalog()
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	setup, ok := setups[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	info := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"commit": commit, "go": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
	}

	var w workload
	var setupCPU []time.Duration
	var setupTotal time.Duration
	for len(setupCPU) < minSetups || (setupTotal < time.Second && len(setupCPU) < maxSetups) {
		start, cpu := time.Now(), cpuTime()
		w, err = setup(seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupCPU = append(setupCPU, cpuTime()-cpu)
		setupTotal += time.Since(start)
	}

	var untraced, tracedPasses []passStats
	var tr *tracer
	tot := &layerCounts{}
	// Passes repeat while another one as long as the last is expected to
	// end within the window, so a run's length stays near it; the first
	// pass of each kind always runs.
	begin := time.Now()
	window := time.Duration(seconds * float64(time.Second))
	more := func(passes []passStats) bool {
		n := len(passes)
		return n == 0 || time.Since(begin)+passes[n-1].wall <= window
	}
	if traced {
		untraced = append(untraced, w.pass(nil, nil))
		tr = newTracer()
		for more(tracedPasses) {
			tracedPasses = append(tracedPasses, w.pass(tr, tot))
		}
	} else {
		for more(untraced) {
			untraced = append(untraced, w.pass(nil, nil))
		}
	}

	res := result{Metrics: map[string]metricValue{}}
	all := append(append([]passStats(nil), untraced...), tracedPasses...)
	for _, p := range all {
		res.Attempted += p.jobs
		res.Failed += p.failed
		for _, f := range p.failures {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
		}
	}
	res.Correct = res.Failed == 0

	kind, values := "end_to_end", endToEnd(untraced, setupCPU)
	if traced {
		spans := tr.snapshot()
		link(spans)
		kind, values = "per_layer", perLayer(tracedPasses, untraced, spans, tot)
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := tr.writeSpans(path, spans); err != nil {
			return err
		}
		info["spans"] = path
	}
	for _, m := range cat.Metrics {
		if m.Kind != kind {
			continue
		}
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is in the catalog but not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var walls, cpus []float64
	for _, p := range all {
		walls, cpus = append(walls, secs(p.wall)), append(cpus, secs(p.cpu))
	}
	info["pass_wall_s"], info["pass_cpu_s"] = walls, cpus

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"run": info}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d verdicts failed their check", res.Failed, res.Attempted)
	}
	return nil
}
