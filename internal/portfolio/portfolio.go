// Package portfolio races differently-configured solver engines over the
// same problem and returns the first definitive verdict. The paper's
// extensibility argument — "the most appropriate solver for a given task
// can be integrated and used" — leaves open which configuration is the most
// appropriate; a portfolio sidesteps the question by running several
// candidate configurations in parallel and letting the problem pick.
//
// Each engine receives its own clone of the problem (engines mutate their
// problem while solving) and its own solver instances (Config values must
// not share solver state across engines). The first engine to return a
// definitive SAT or UNSAT verdict wins; the remaining engines are cancelled
// through their context and drained before Solve returns, so no goroutine
// outlives the call. Per-engine statistics are merged into a portfolio
// total after each engine has delivered its result over a channel, making
// the aggregation race-free without locks.
//
// The one piece of state the members do share — deliberately, through a
// concurrency-safe store rather than through solver internals — is the
// lemma exchange (internal/exchange): every theory-conflict clause a member
// learns is a fact about the problem itself, so it is published to a shared
// store and imported by the other members at the top of their lazy-loop
// iterations. A conflict discovered by one member's simplex run then prunes
// every member's Boolean search instead of being rediscovered N times.
// Options.NoShare turns the exchange off.
//
// Which engine wins is nondeterministic when several configurations finish
// close together: the verdict is always a sound answer for the problem, but
// the winner's identity, the merged statistics, and — for satisfiable
// problems with several models — the reported model may differ from run to
// run. Lemma sharing adds a second source of cross-run variation (which
// lemmas a member sees depends on goroutine interleaving) but never changes
// soundness; single-strategy runs import nothing and stay deterministic.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"time"

	"absolver/internal/core"
	"absolver/internal/exchange"
	"absolver/internal/nlp"
	"absolver/internal/polyar"
)

// Strategy names one engine configuration entering the race. The Config's
// solver instances must be private to this strategy: a solver shared
// between two strategies would be driven from two goroutines at once.
type Strategy struct {
	Name   string
	Config core.Config
}

// EngineResult records one engine's outcome in the race.
type EngineResult struct {
	// Strategy is the name of the configuration this engine ran.
	Strategy string
	// Result is the engine's verdict (Stats carries the engine's own
	// counters and wall time).
	Result core.Result
	// Err is the engine's error; losing engines cancelled by the portfolio
	// report context.Canceled here.
	Err error
	// Wall is the engine's wall-clock time inside the race.
	Wall time.Duration
	// Winner marks the engine whose verdict the portfolio adopted.
	Winner bool
}

// Outcome is the portfolio's aggregate answer.
type Outcome struct {
	// Result is the adopted verdict: the winner's on a definitive finish,
	// otherwise the best non-definitive result available.
	Result core.Result
	// Winner is the adopted engine's strategy name ("" when no engine
	// finished definitively).
	Winner string
	// Err is nil on a definitive verdict; otherwise the caller's context
	// error (if it ended the race) or the first engine error.
	Err error
	// Engines holds every engine's individual outcome, in strategy order.
	Engines []EngineResult
	// Stats sums the per-engine statistics: total work across the
	// portfolio, not elapsed time (engines run in parallel, so
	// Stats.WallTime exceeds the race's wall-clock duration).
	Stats core.Stats
}

// Compose ORs base's ablation knobs (core.Knobs) onto every strategy's own
// configuration and returns strategies. A strategy defined by a knob keeps
// it when base leaves it off.
func Compose(strategies []Strategy, base core.Config) []Strategy {
	for i := range strategies {
		strategies[i].Config.OrKnobs(base)
	}
	return strategies
}

// DefaultStrategies returns n distinct engine configurations for a race,
// covering the engine's main strategic axes: conflict refinement (IIS on /
// off), static lemma grounding, Boolean restart mode, and nonlinear search
// effort. Each call builds fresh solver instances, so the result is safe to
// race immediately. n is clamped below at 1; beyond the core set, further
// strategies vary the nonlinear multi-start seed.
func DefaultStrategies(n int) []Strategy {
	if n < 1 {
		n = 1
	}
	base := []Strategy{
		{Name: "default", Config: core.Config{}},
		{Name: "no-iis", Config: core.Config{NoIIS: true}},
		{Name: "deep-nlp", Config: core.Config{
			Nonlinear: &core.PenaltySolver{Options: nlp.Options{Starts: 64, Seed: 7}},
		}},
		{Name: "no-lemmas", Config: core.Config{NoGroundLemmas: true}},
		{Name: "restart", Config: core.Config{RestartBoolean: true}},
		{Name: "light-nlp", Config: core.Config{
			Nonlinear: &core.PenaltySolver{Options: nlp.Options{Starts: 6, MaxIters: 120}},
		}},
		// polyar keeps the penalty stage minimal so undecided checks reach
		// the abstraction-refinement fallback almost immediately; the wide
		// variant additionally buys the fallback a much larger region
		// budget for the instances only exhaustive refinement can close.
		{Name: "polyar", Config: core.Config{
			Nonlinear: &core.PenaltySolver{Options: nlp.Options{Starts: 2, MaxIters: 60}},
		}},
		{Name: "polyar-wide", Config: core.Config{
			Nonlinear: &core.PenaltySolver{Options: nlp.Options{Starts: 2, MaxIters: 60}},
			PolyAR:    polyar.Options{MaxRegions: 8192},
		}},
	}
	out := make([]Strategy, 0, n)
	for i := 0; i < n && i < len(base); i++ {
		out = append(out, base[i])
	}
	for i := len(base); i < n; i++ {
		out = append(out, Strategy{
			Name: fmt.Sprintf("seed-nlp-%d", i),
			Config: core.Config{
				Nonlinear: &core.PenaltySolver{Options: nlp.Options{Seed: int64(100 + i)}},
			},
		})
	}
	return out
}

// Options tunes a portfolio race beyond the strategy list.
type Options struct {
	// NoShare disables the cross-member lemma exchange: members learn only
	// from their own theory checks, as in the pre-exchange portfolio. Use
	// it to measure the sharing win, or when run-to-run variation from
	// sharing is unwanted in a multi-strategy race.
	NoShare bool
	// Exchange tunes the shared store (zero value = defaults). Ignored
	// when NoShare is set or when a strategy brings its own Config.Exchange.
	Exchange exchange.Options
}

// Solve races one engine per strategy over clones of p and returns the
// first definitive (SAT or UNSAT) verdict, cancelling and draining the
// losers before returning; lemma sharing between members is on. It is
// SolveWith with default Options. With no strategies, DefaultStrategies(2)
// is used. When no engine finishes definitively — every configuration
// reports unknown, errors, or the caller's ctx ends the race — the Outcome
// carries StatusUnknown with the details per engine.
func Solve(ctx context.Context, p *core.Problem, strategies []Strategy) Outcome {
	return SolveWith(ctx, p, strategies, Options{})
}

// SolveWith is Solve with explicit Options. Unless opts.NoShare is set, a
// fresh lemma exchange is created for the race and every strategy whose
// Config.Exchange is nil gets its own client; strategies that already
// carry an Exchange keep it.
func SolveWith(ctx context.Context, p *core.Problem, strategies []Strategy, opts Options) Outcome {
	if len(strategies) == 0 {
		strategies = DefaultStrategies(2)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var ex *exchange.Exchange
	if !opts.NoShare {
		ex = exchange.New(opts.Exchange)
	}

	type finish struct {
		idx  int
		res  core.Result
		err  error
		wall time.Duration
	}
	done := make(chan finish, len(strategies))
	for i := range strategies {
		cfg := strategies[i].Config
		if ex != nil && cfg.Exchange == nil {
			cfg.Exchange = ex.NewClient()
		}
		eng := core.NewEngine(p.Clone(), cfg)
		go func(i int) {
			start := time.Now()
			res, err := eng.SolveContext(runCtx)
			done <- finish{idx: i, res: res, err: err, wall: time.Since(start)}
		}(i)
	}

	out := Outcome{Engines: make([]EngineResult, len(strategies))}
	winner := -1
	var firstErr error
	for n := 0; n < len(strategies); n++ {
		f := <-done
		out.Engines[f.idx] = EngineResult{
			Strategy: strategies[f.idx].Name,
			Result:   f.res,
			Err:      f.err,
			Wall:     f.wall,
		}
		out.Stats.Merge(f.res.Stats)
		if winner < 0 && f.err == nil &&
			(f.res.Status == core.StatusSat || f.res.Status == core.StatusUnsat) {
			winner = f.idx
			out.Result = f.res
			out.Winner = strategies[f.idx].Name
			out.Engines[f.idx].Winner = true
			cancel() // the race is decided; stop the losers
		}
		if firstErr == nil && f.err != nil && !errors.Is(f.err, context.Canceled) {
			firstErr = f.err
		}
	}
	if winner >= 0 {
		return out
	}

	// No definitive finish: adopt the first clean unknown, if any.
	out.Result = core.Result{Status: core.StatusUnknown, Stats: out.Stats}
	for _, er := range out.Engines {
		if er.Err == nil {
			out.Result = er.Result
			break
		}
	}
	if err := ctx.Err(); err != nil {
		out.Err = err
	} else {
		out.Err = firstErr
	}
	return out
}
