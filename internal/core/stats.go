package core

import (
	"fmt"
	"reflect"
	"strings"
	"time"
)

// Stats aggregates engine counters and per-stage wall time.
//
// Each field is declared once, here. Its `stat` tag gives the stable
// snake_case name and, after a comma, the label of the CLI -stats line it
// prints on; its `help` tag is the one-line description. Merge, a
// session's per-call delta, Counters, the JSON wire form, the
// absolverd_engine_* series and the -stats lines all walk StatFields, so a
// new field appears on every surface without further wiring. Every field
// is an integer count or a time.Duration.
type Stats struct {
	Iterations      int `stat:"iterations" help:"SAT-theory loop iterations."`
	LinearChecks    int `stat:"linear_checks" help:"Theory checks run by the linear solver."`
	NonlinearChecks int `stat:"nonlinear_checks" help:"Theory checks run by the nonlinear solver."`
	ConflictClauses int `stat:"conflict_clauses" help:"Theory conflicts turned into blocking clauses."`
	ConflictLits    int `stat:"conflict_lits" help:"Literals in theory conflict clauses."`
	LossyBlocks     int `stat:"lossy_blocks" help:"Undecided assignments blocked lossily (unsat degrades to unknown)."`
	NESplits        int `stat:"ne_splits" help:"Disequality case splits."`
	// SessionSolves counts solve calls served through a Session. Session
	// results carry per-call deltas, so each call contributes exactly 1 and
	// merged stats count calls, not engines.
	SessionSolves     int `stat:"session_solves" help:"Solve calls served through an incremental session."`
	LemmasPublished   int `stat:"lemmas_published,lemmas" help:"Theory-conflict clauses the lemma exchange (Config.Exchange) accepted."`
	LemmasImported    int `stat:"lemmas_imported,lemmas" help:"Peer lemmas added to the Boolean skeleton."`
	LemmasDeduped     int `stat:"lemmas_deduped,lemmas" help:"Peer lemmas dropped as already known."`
	TheoryCacheHits   int `stat:"theory_cache_hits,theory-cache" help:"Theory checks answered from the theory-verdict cache."`
	TheoryCacheMisses int `stat:"theory_cache_misses,theory-cache" help:"Theory checks that ran the solvers and filled the cache."`
	// The inprocessing counters are snapshots of the Boolean solver's
	// cumulative counters taken after each Boolean query, so within one
	// engine they are totals, and Merge sums them across engines.
	ClausesSubsumed  int64 `stat:"clauses_subsumed,sat-inprocess" help:"Clauses deleted or strengthened by SAT subsumption."`
	ProbedLiterals   int64 `stat:"probed_literals,sat-inprocess" help:"Failed-literal probes run by the SAT solver."`
	ArenaCompactions int64 `stat:"arena_compactions,sat-inprocess" help:"SAT clause-arena mark-and-relocate passes."`
	// NLPUnknown is the engine's only unknown-prone verdict source and the
	// denominator of the nonlinear unknown rate.
	NLPUnknown        int           `stat:"nlp_unknown,nlp" help:"Nonlinear theory checks the penalty solver left undecided."`
	NLPUnknownRescued int           `stat:"nlp_unknown_rescued,nlp" help:"Undecided nonlinear checks PolyAR turned into a definitive verdict."`
	PolyARRegions     int           `stat:"polyar_regions,polyar" help:"Regions visited by the PolyAR fallback."`
	PolyARPruned      int           `stat:"polyar_pruned,polyar" help:"PolyAR regions discharged as solution-free."`
	PolyARWitnesses   int           `stat:"polyar_witnesses,polyar" help:"Verified SAT witnesses found by PolyAR."`
	BoolTime          time.Duration `stat:"bool,time" help:"Time in the Boolean solver."`
	LinearTime        time.Duration `stat:"linear,time" help:"Time in the linear solver."`
	NonlinearTime     time.Duration `stat:"nonlinear,time" help:"Time in the nonlinear solver and its PolyAR fallback."`
	// WallTime is the engine's total time inside Solve / SolveContext. In a
	// portfolio run each engine reports its own; merged Stats carry the sum
	// over engines (total work), which exceeds elapsed time when engines
	// run in parallel.
	WallTime time.Duration `stat:"wall,time" help:"Engine wall time."`
}

// Stat describes one Stats field.
type Stat struct {
	// Name is the stable snake_case name: the Counters key and the
	// absolverd_engine_<name>_total series. A duration travels as
	// "<name>_ms" on the wire and as absolverd_engine_<name>_seconds_total.
	Name string
	// Line labels the CLI -stats line the field prints on ("" = the first).
	Line string
	// Help is the one-line description.
	Help string
	// Duration marks a time.Duration field.
	Duration bool
	index    int
}

// Get returns the field's value in s (nanoseconds for a duration).
func (f Stat) Get(s *Stats) int64 { return reflect.ValueOf(s).Elem().Field(f.index).Int() }

// Set stores v in the field of s.
func (f Stat) Set(s *Stats, v int64) { reflect.ValueOf(s).Elem().Field(f.index).SetInt(v) }

// StatFields describes every Stats field in declaration order.
var StatFields = func() []Stat {
	t := reflect.TypeOf(Stats{})
	out := make([]Stat, t.NumField())
	for i := range out {
		f := t.Field(i)
		name, line, _ := strings.Cut(f.Tag.Get("stat"), ",")
		if name == "" || f.Tag.Get("help") == "" || (f.Type.Kind() != reflect.Int && f.Type.Kind() != reflect.Int64) {
			panic(fmt.Sprintf("core: Stats.%s needs an integer type and stat/help tags", f.Name))
		}
		out[i] = Stat{Name: name, Line: line, Help: f.Tag.Get("help"),
			Duration: f.Type == reflect.TypeOf(time.Duration(0)), index: i}
	}
	return out
}()

// Merge accumulates o into s, summing every counter and duration. It is
// how a portfolio run aggregates per-engine statistics: each engine
// goroutine owns its Stats exclusively while solving, and Merge is called
// only after that engine has delivered its result over a channel, so the
// aggregation is race-free by construction (happens-before via channel
// receive) without any locking in the hot solving paths.
func (s *Stats) Merge(o Stats) { s.add(&o, 1) }

// statsDelta returns after − before, field by field — the per-call
// attribution a session result carries.
func statsDelta(after, before Stats) Stats {
	after.add(&before, -1)
	return after
}

// add sets s += sign·o field by field.
func (s *Stats) add(o *Stats, sign int64) {
	a, b := reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem()
	for i := 0; i < a.NumField(); i++ {
		a.Field(i).SetInt(a.Field(i).Int() + sign*b.Field(i).Int())
	}
}

// Counters returns the stats' integer counters keyed by their stable
// names. The key set is fixed: every counter appears even when zero, so
// exporters see a stable set. Durations are excluded.
func (s Stats) Counters() map[string]int64 {
	m := make(map[string]int64, len(StatFields))
	for _, f := range StatFields {
		if !f.Duration {
			m[f.Name] = f.Get(&s)
		}
	}
	return m
}
