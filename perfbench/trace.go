package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"absolver/internal/core"
	"absolver/internal/expr"
	"absolver/internal/lp"
	"absolver/internal/nlp"
	"absolver/internal/sat"
)

// span is one timed call into a layer. Spans of one instance share Inst;
// Parent is the innermost span of the same instance that encloses this one
// in time (0 = a root), assigned when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Inst   int    `json:"inst"`
	Layer  string `json:"layer"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of a traced pass in memory. A nil *tracer
// records nothing, which is how untraced passes run the same job code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// names labels instance IDs with the instance they ran.
	names map[int]string
	// passes numbers the traced passes; instance IDs of pass k start
	// above k<<20 so that instances of different passes never mix.
	passes int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), names: map[int]string{}} }

// name labels an instance ID.
func (t *tracer) name(inst int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.names[inst] = name
	t.mu.Unlock()
}

func (t *tracer) record(inst int, layer, op string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Inst: inst, Layer: layer, Op: op,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// newPass returns the instance-ID base of the next pass (0 untraced).
func (t *tracer) newPass() int {
	if t == nil {
		return 0
	}
	t.passes++
	return t.passes << 20
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// since records a span from start to now; use as defer tr.since(...).
func (t *tracer) since(inst int, layer, op string, start time.Time) {
	t.record(inst, layer, op, start, time.Now())
}

// link assigns every span its parent: within one instance the spans nest
// in time (each instance runs on one goroutine at a time), so the parent is
// the innermost earlier-starting span still open.
func link(spans []span) {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := spans[idx[a]], spans[idx[b]]
		if x.Inst != y.Inst {
			return x.Inst < y.Inst
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	var stack []int
	for n, i := range idx {
		if n > 0 && spans[idx[n-1]].Inst != spans[i].Inst {
			stack = stack[:0]
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
			stack = stack[:len(stack)-1]
		}
		spans[i].Parent = 0
		if len(stack) > 0 {
			spans[i].Parent = spans[stack[len(stack)-1]].ID
		}
		stack = append(stack, i)
	}
}

// selfTimes sums, per layer, each span's duration minus the part its child
// spans cover. Children of one parent never overlap (one goroutine per
// instance), so the covered part is the sum of the children's durations.
func selfTimes(spans []span) map[string]time.Duration {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[byID[s.Parent]] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Layer] += s.dur() - child[i]
	}
	return out
}

// busy sums the durations of the spans of one layer (optionally one op).
func busy(spans []span, layer, op string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Layer == layer && (op == "" || s.Op == op) {
			d += s.dur()
		}
	}
	return d
}

// writeSpans stores the spans, the instance names and the per-layer self
// times as one JSON document.
func (t *tracer) writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	selfS := map[string]float64{}
	for layer, d := range selfTimes(spans) {
		selfS[layer] = d.Seconds()
	}
	doc := struct {
		SelfS     map[string]float64 `json:"self_s"`
		Instances map[int]string     `json:"instances"`
		Spans     []span             `json:"spans"`
	}{selfS, t.names, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// Plug-in wrappers. Each exposes exactly the method set of the solver it
// wraps: the engine type-asserts optional methods (assumptions, polarity,
// freezing, inprocessing, Stats) and takes other paths when one is missing,
// so a wrapper that dropped one would measure a different solver.

// probe is the per-instance recording context a wrapper reports to.
type probe struct {
	tr   *tracer
	inst int
	tot  *layerCounts
}

// boolInner is what both Boolean solvers the benchmark uses implement.
type boolInner interface {
	core.BoolSolver
	SetPolarity(v int, neg bool)
	FreezeVar(v int)
	SetInprocess(on bool)
	Stats() sat.Stats
}

// timedBool wraps the methods the CDCL and the external-process solver
// share.
type timedBool[S boolInner] struct {
	inner S
	p     probe
}

func (b *timedBool[S]) Name() string { return b.inner.Name() }

func (b *timedBool[S]) Reset(numVars int, clauses [][]int) error {
	defer b.p.tr.since(b.p.inst, "sat", "reset", time.Now())
	return b.inner.Reset(numVars, clauses)
}

func (b *timedBool[S]) Solve(ctx context.Context) ([]bool, bool, error) {
	defer b.p.tr.since(b.p.inst, "sat", "solve", time.Now())
	b.p.tot.add(func(c *layerCounts) { c.satCalls++ })
	return b.inner.Solve(ctx)
}

func (b *timedBool[S]) AddBlocking(clause []int) error {
	defer b.p.tr.since(b.p.inst, "sat", "add", time.Now())
	return b.inner.AddBlocking(clause)
}

func (b *timedBool[S]) SetPolarity(v int, neg bool) { b.inner.SetPolarity(v, neg) }
func (b *timedBool[S]) FreezeVar(v int)             { b.inner.FreezeVar(v) }
func (b *timedBool[S]) SetInprocess(on bool)        { b.inner.SetInprocess(on) }
func (b *timedBool[S]) Stats() sat.Stats            { return b.inner.Stats() }

// cdclTimer wraps the default in-process CDCL solver, which also solves
// under assumptions (sessions, model checking).
type cdclTimer struct{ timedBool[*core.CDCLSolver] }

func (b *cdclTimer) SolveAssuming(ctx context.Context, assumptions []int) ([]bool, bool, []int, error) {
	defer b.p.tr.since(b.p.inst, "sat", "solve", time.Now())
	b.p.tot.add(func(c *layerCounts) { c.satCalls++ })
	return b.inner.SolveAssuming(ctx, assumptions)
}

// externalTimer wraps the external-process emulation used by the paper's
// restart mode.
type externalTimer struct {
	timedBool[*core.ExternalCDCLSolver]
}

// linearTimer wraps the simplex plug-in.
type linearTimer struct {
	inner *core.SimplexSolver
	p     probe
}

func (l *linearTimer) Name() string { return l.inner.Name() }

func (l *linearTimer) Check(ctx context.Context, rows []lp.Constraint, lower, upper map[string]float64, ints map[string]bool) core.LinearVerdict {
	start, pivots := time.Now(), l.inner.Pivots
	v := l.inner.Check(ctx, rows, lower, upper, ints)
	l.p.tr.since(l.p.inst, "lp", "check", start)
	l.p.tot.add(func(c *layerCounts) {
		c.lpCalls++
		c.lpPivots += int64(l.inner.Pivots - pivots)
		if v.Status == lp.Infeasible {
			c.lpInfeasible++
		}
	})
	return v
}

// nonlinearTimer wraps the penalty-descent + HC4 plug-in.
type nonlinearTimer struct {
	inner *core.PenaltySolver
	p     probe
}

func (n *nonlinearTimer) Name() string { return n.inner.Name() }

func (n *nonlinearTimer) Check(ctx context.Context, atoms []expr.Atom, box expr.Box, hint expr.Env) core.NonlinearVerdict {
	start, evals := time.Now(), n.inner.Evals
	v := n.inner.Check(ctx, atoms, box, hint)
	n.p.tr.since(n.p.inst, "nlp", "check", start)
	n.p.tot.add(func(c *layerCounts) {
		c.nlpCalls++
		c.nlpEvals += int64(n.inner.Evals - evals)
		if v.Status == nlp.Unknown {
			c.nlpUnknown++
		}
	})
	return v
}

// plugins is one instance's set of solver plug-ins. Untraced passes get
// the defaults the engine would build itself; traced passes get the same
// solvers behind timing wrappers.
type plugins struct {
	cdcl     *core.CDCLSolver
	external *core.ExternalCDCLSolver
	cfg      core.Config
}

// newPlugins builds the plug-ins for one instance. external selects the
// paper's restart mode (external-process Boolean solver, RestartBoolean).
func newPlugins(p probe, external bool) *plugins {
	pl := &plugins{}
	simplex, penalty := core.NewSimplexSolver(), core.NewPenaltySolver()
	pl.cfg.Linear, pl.cfg.Nonlinear = simplex, penalty
	if external {
		pl.external = core.NewExternalCDCLSolver()
		pl.cfg.Bool, pl.cfg.RestartBoolean = pl.external, true
	} else {
		pl.cdcl = core.NewCDCLSolver()
		pl.cfg.Bool = pl.cdcl
	}
	if p.tr == nil {
		return pl
	}
	if external {
		pl.cfg.Bool = &externalTimer{timedBool[*core.ExternalCDCLSolver]{inner: pl.external, p: p}}
	} else {
		pl.cfg.Bool = &cdclTimer{timedBool[*core.CDCLSolver]{inner: pl.cdcl, p: p}}
	}
	pl.cfg.Linear = &linearTimer{inner: simplex, p: p}
	pl.cfg.Nonlinear = &nonlinearTimer{inner: penalty, p: p}
	return pl
}

// satStats reads the Boolean solver's own counters.
func (pl *plugins) satStats() sat.Stats {
	if pl.external != nil {
		return pl.external.Stats()
	}
	return pl.cdcl.Stats()
}
