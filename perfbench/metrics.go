package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"absolver/internal/core"
	"absolver/internal/sat"
)

// catalogJSON describes every workload and metric: unit, direction, layer,
// and the (end-to-end metric, workload) pairs a per-layer metric should
// move. The metrics this program prints are exactly the catalog's.
//
//go:embed catalog.json
var catalogJSON []byte

type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
		Seed int64  `json:"seed"`
		// Dropped says why a workload is left out of BENCHMARK.json.
		Dropped string `json:"dropped"`
	} `json:"workloads"`
	Metrics []catalogMetric `json:"metrics"`
}

type catalogMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Kind is "end_to_end" (untraced passes) or "per_layer" (traced).
	Kind  string `json:"kind"`
	Layer string `json:"layer"`
	Moves []struct {
		Metric   string `json:"metric"`
		Workload string `json:"workload"`
	} `json:"moves"`
	Doc string `json:"doc"`
}

func loadCatalog() (catalog, error) {
	var c catalog
	err := json.Unmarshal(catalogJSON, &c)
	return c, err
}

// passStats is what one pass over a workload's inputs measured.
type passStats struct {
	wall, cpu time.Duration
	alloc     uint64
	gcCycles  uint32
	gcPause   time.Duration
	jobs      int
	decided   int
	failed    int
	failures  []string
}

func (ps *passStats) tally(name string, decided bool, err error) {
	switch {
	case err != nil:
		ps.failed++
		ps.failures = append(ps.failures, fmt.Sprintf("%s: %v", name, err))
	case decided:
		ps.decided++
	}
}

// window measures wall time, process CPU time, allocation and GC over a
// pass. It starts from a collected heap so passes start alike.
type window struct {
	start time.Time
	cpu   time.Duration
	ms    runtime.MemStats
}

func startWindow() *window {
	w := &window{}
	runtime.GC()
	runtime.ReadMemStats(&w.ms)
	w.cpu = cpuTime()
	w.start = time.Now()
	return w
}

func (w *window) stop(ps *passStats) {
	ps.wall = time.Since(w.start)
	ps.cpu = cpuTime() - w.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps.alloc = ms.TotalAlloc - w.ms.TotalAlloc
	ps.gcCycles = ms.NumGC - w.ms.NumGC
	ps.gcPause = time.Duration(ms.PauseTotalNs - w.ms.PauseTotalNs)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerCounts accumulates the layer counters of traced passes. Served
// passes update it from several goroutines.
type layerCounts struct {
	mu sync.Mutex

	satCalls, lpCalls, lpInfeasible, lpPivots int64
	nlpCalls, nlpUnknown, nlpEvals            int64
	sat                                       sat.Stats
	eng                                       core.Stats

	mcBase, mcInduction time.Duration
	mcDepths            int

	serverOverheadMS, serverSolveMS        []float64
	queueWait, cacheHits, cacheMisses, rej float64
}

// add applies f under the lock; a nil receiver (untraced pass) ignores it.
func (c *layerCounts) add(f func(c *layerCounts)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	f(c)
	c.mu.Unlock()
}

// addSolve folds in one finished engine run and its Boolean solver's own
// counters.
func (c *layerCounts) addSolve(st core.Stats, pl *plugins) {
	if c == nil {
		return
	}
	ss := pl.satStats()
	c.add(func(c *layerCounts) {
		c.eng.Merge(st)
		c.sat.Decisions += ss.Decisions
		c.sat.Conflicts += ss.Conflicts
		c.sat.Propagations += ss.Propagations
		c.sat.ProbedLiterals += ss.ProbedLiterals
		c.sat.ClausesSubsumed += ss.ClausesSubsumed
		c.sat.ArenaCompactions += ss.ArenaCompactions
	})
}

// quantile is Python's statistics.quantiles(method="inclusive") at q.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func secs(d time.Duration) float64 { return d.Seconds() }

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the gated metrics from untraced passes. Times are CPU
// seconds: on a shared 2-vCPU VM, host load spread the pass wall times of
// ten runs by up to 45% (interquartile range over median) but their CPU
// times by at most 15%. Wall time is reported per layer (run.wall_s).
func endToEnd(passes []passStats, setupCPU []time.Duration) map[string]float64 {
	var cpu, alloc, setup []float64
	jobs, decided := 0, 0
	for _, p := range passes {
		cpu = append(cpu, secs(p.cpu))
		alloc = append(alloc, float64(p.alloc)/(1<<20))
		jobs += p.jobs
		decided += p.decided
	}
	for _, d := range setupCPU {
		setup = append(setup, secs(d))
	}
	return map[string]float64{
		"cpu_s":        median(cpu),
		"decided_frac": ratio(float64(decided), float64(jobs)),
		"setup_s":      median(setup),
		"alloc_mb":     median(alloc),
	}
}

// perLayer computes the layer metrics of the traced passes, as per-pass
// averages, from the spans and the counters; failed_frac and the tracing
// overhead also use the untraced pass.
func perLayer(traced, untraced []passStats, spans []span, c *layerCounts) map[string]float64 {
	n := float64(len(traced))
	per := func(x float64) float64 { return x / n }
	var tracedWall, untracedWall []float64
	var gcCycles, gcPause float64
	jobs, failed := 0, 0
	for _, p := range traced {
		tracedWall = append(tracedWall, secs(p.wall))
		gcCycles += float64(p.gcCycles)
		gcPause += secs(p.gcPause)
		jobs, failed = jobs+p.jobs, failed+p.failed
	}
	for _, p := range untraced {
		untracedWall = append(untracedWall, secs(p.wall))
		jobs, failed = jobs+p.jobs, failed+p.failed
	}
	var requestMS []float64
	for _, s := range spans {
		if s.Layer == "server" {
			requestMS = append(requestMS, durMS(s.dur()))
		}
	}
	satBusy := secs(busy(spans, "sat", ""))
	lpBusy := secs(busy(spans, "lp", ""))
	nlpBusy := secs(busy(spans, "nlp", ""))
	nonlinear := secs(c.eng.NonlinearTime)
	polyarBusy := math.Max(0, nonlinear-nlpBusy)
	e := c.eng
	return map[string]float64{
		"sat.busy_s":            per(satBusy),
		"sat.reset_s":           per(secs(busy(spans, "sat", "reset"))),
		"sat.calls":             per(float64(c.satCalls)),
		"sat.decisions":         per(float64(c.sat.Decisions)),
		"sat.conflicts":         per(float64(c.sat.Conflicts)),
		"sat.propagations":      per(float64(c.sat.Propagations)),
		"sat.probed_literals":   per(float64(c.sat.ProbedLiterals)),
		"sat.clauses_subsumed":  per(float64(c.sat.ClausesSubsumed)),
		"sat.arena_compactions": per(float64(c.sat.ArenaCompactions)),
		"lp.busy_s":             per(lpBusy),
		"lp.calls":              per(float64(c.lpCalls)),
		"lp.pivots":             per(float64(c.lpPivots)),
		"lp.ms_per_call":        ratio(lpBusy*1000, float64(c.lpCalls)),
		"lp.infeasible_frac":    ratio(float64(c.lpInfeasible), float64(c.lpCalls)),
		"nlp.busy_s":            per(nlpBusy),
		"nlp.calls":             per(float64(c.nlpCalls)),
		"nlp.evals":             per(float64(c.nlpEvals)),
		"nlp.ms_per_call":       ratio(nlpBusy*1000, float64(c.nlpCalls)),
		"nlp.unknown_frac":      ratio(float64(c.nlpUnknown), float64(c.nlpCalls)),
		"polyar.busy_s":         per(polyarBusy),
		"polyar.calls":          per(float64(e.NLPUnknown)),
		"polyar.regions":        per(float64(e.PolyARRegions)),
		"polyar.pruned":         per(float64(e.PolyARPruned)),
		"polyar.rescue_frac":    ratio(float64(e.NLPUnknownRescued), float64(e.NLPUnknown)),
		"core.self_s":           per(math.Max(0, secs(e.WallTime)-satBusy-lpBusy-nonlinear)),
		"core.iterations":       per(float64(e.Iterations)),
		"core.theory_checks":    per(float64(e.LinearChecks + e.NonlinearChecks)),
		"core.cache_hit_frac":   ratio(float64(e.TheoryCacheHits), float64(e.TheoryCacheHits+e.TheoryCacheMisses)),
		"core.conflict_clauses": per(float64(e.ConflictClauses)),
		"core.lossy_blocks":     per(float64(e.LossyBlocks)),
		"certify.busy_s":        per(secs(busy(spans, "certify", ""))),
		"mc.base_s":             per(secs(c.mcBase)),
		"mc.induction_s":        per(secs(c.mcInduction)),
		"mc.depths":             per(float64(c.mcDepths)),
		"mc.replay_s":           per(secs(busy(spans, "mc.replay", ""))),
		"server.latency_p50_ms": quantile(requestMS, 0.5),
		"server.latency_p90_ms": quantile(requestMS, 0.9),
		"server.overhead_ms":    median(c.serverOverheadMS),
		"server.solve_ms":       median(c.serverSolveMS),
		"server.queue_wait_s":   per(c.queueWait),
		"server.cache_hit_frac": ratio(c.cacheHits, c.cacheHits+c.cacheMisses),
		"server.rejected":       per(c.rej),
		"runtime.gc_cycles":     per(gcCycles),
		"runtime.gc_pause_s":    per(gcPause),
		"runtime.max_rss_mb":    maxRSSMiB(),
		"failed_frac":           ratio(float64(failed), float64(jobs)),
		"run.wall_s":            median(untracedWall),
		"trace.overhead_frac":   ratio(median(tracedWall), median(untracedWall)) - 1,
	}
}
