// Package server is the solver-as-a-service subsystem: it exposes the
// engine over HTTP with a bounded job queue and a fixed worker pool
// (admission control instead of unbounded goroutine fan-out), per-request
// deadlines that flow into the engine's cooperative cancellation, NDJSON
// streaming of the lazy loop's trace events, and a Prometheus-style
// /metrics endpoint aggregating engine counters across all jobs.
//
// Serving contract:
//
//   - With queue depth Q and W workers, at most W+Q solves are admitted
//     concurrently; further requests are rejected with 429 + Retry-After.
//   - A request's timeout (query parameter, clamped to Config.MaxTimeout)
//     covers queue wait plus solve; expiry yields verdict "unknown" with
//     reason "timeout".
//   - A client disconnect cancels its in-flight solve via the request
//     context.
//   - Shutdown stops admitting (503), drains every admitted job, then
//     stops the workers — nothing admitted is ever dropped.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"absolver/internal/core"
	"absolver/internal/dimacs"
	"absolver/internal/exchange"
	"absolver/internal/portfolio"
	"absolver/internal/server/api"
	"absolver/internal/smtlib"
)

// Outcome is what a solve produced: the engine result (Stats merged over
// members for a portfolio run) plus the winning strategy's name.
type Outcome struct {
	Result core.Result
	Winner string
}

// SolveFunc decides one admitted job. The default (nil) runs the engine —
// single or portfolio per the request's parameters; the load/robustness
// suite substitutes gated functions to pin queue timing, and embedders can
// route to custom backends. trace is nil unless the request streams.
type SolveFunc func(ctx context.Context, p *core.Problem, params api.SolveParams, trace core.TraceFunc) (Outcome, error)

// Config tunes the service. Zero fields select the documented defaults.
type Config struct {
	// Workers is the fixed solver pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted beyond the busy workers (default 64).
	QueueDepth int
	// MaxBodyBytes caps a request body (default 8 MiB); larger bodies get 413.
	MaxBodyBytes int64
	// DefaultTimeout applies when a request names none (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps the per-request timeout (default 5m).
	MaxTimeout time.Duration
	// MaxPortfolio caps the portfolio parameter (default 8); larger
	// requests get 400.
	MaxPortfolio int
	// CacheSize bounds the canonical verdict cache (default 256 entries);
	// negative disables caching entirely.
	CacheSize int
	// MaxBatchInstances caps the instances accepted per /v1/batch request
	// (default 1000); larger batches get 400.
	MaxBatchInstances int
	// MaxCheckDepth caps the k parameter of /v1/check (default 64);
	// deeper requests get 400.
	MaxCheckDepth int
	// SolveDelay inserts an artificial pause before each solve — a load-
	// testing and drain-rehearsal knob (cancellable by the job's context).
	SolveDelay time.Duration
	// DIMACSLimits / SMTLIBLimits bound problem parsing; zero fields take
	// the parser packages' defaults. MaxBodyBytes already caps total size.
	DIMACSLimits dimacs.Limits
	SMTLIBLimits smtlib.Limits
	// SolveFunc overrides how admitted jobs are decided (nil = engine).
	SolveFunc SolveFunc
	// AllowExchange permits requests carrying exchange_url — worker mode:
	// the engine of such a solve dials the named lemma relay and shares
	// theory lemmas with its cube siblings. Off by default: a solve
	// parameter that makes the server open outbound connections to an
	// arbitrary URL is an SSRF vector on a public instance, so only
	// deployments that opt in (absolverd -worker) honour it.
	AllowExchange bool
	// ExchangePollInterval throttles a worker engine's relay import polls
	// (0 = the exchange package default).
	ExchangePollInterval time.Duration
	// ClusterMetrics, when set, is rendered into /metrics as the
	// absolverd_cluster_* series (coordinator deployments).
	ClusterMetrics *ClusterMetrics
	// Logf, when set, receives one line per completed job and per
	// lifecycle transition.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxPortfolio <= 0 {
		c.MaxPortfolio = 8
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxBatchInstances <= 0 {
		c.MaxBatchInstances = 1000
	}
	if c.MaxCheckDepth <= 0 {
		c.MaxCheckDepth = 64
	}
	return c
}

// runFunc decides an admitted job on a worker. It gets the job's context
// and queue wait, passes stream events to emit as they happen, and returns
// the job's final event and a short outcome for the log line. Each endpoint
// supplies one; everything else about a job is shared.
type runFunc func(ctx context.Context, wait time.Duration, emit func(any)) (final any, outcome string)

// job is one admitted request travelling from handler to worker and back.
type job struct {
	name     string // endpoint, for the log line
	ctx      context.Context
	admitted time.Time
	run      runFunc
	// events carries stream events to the handler (nil for a plain solve,
	// which emits none); the worker closes it when run returns.
	events chan any
	// done closes after final is set and events is closed.
	done  chan struct{}
	final any
}

// emit hands one stream event to the handler. The blocking send gives the
// stream natural backpressure; the job context unblocks it when the client
// goes away or the deadline fires, so a dead reader can never wedge a
// worker.
func (j *job) emit(ev any) {
	select {
	case j.events <- ev:
	case <-j.ctx.Done():
	}
}

// Server owns the queue, the worker pool, and the HTTP handlers. Create
// with New, call Start, serve Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	metrics *metrics
	mux     *http.ServeMux
	queue   chan *job
	cache   *verdictCache // nil when Config.CacheSize < 0

	mu       sync.Mutex // guards draining and the admit-vs-shutdown race
	draining bool
	started  bool

	jobs     sync.WaitGroup // admitted, not yet finished
	workerWG sync.WaitGroup
	busy     atomic.Int64
}

// New builds a server; Start must be called before it accepts jobs.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
	}
	s.queue = make(chan *job, s.cfg.QueueDepth)
	if s.cfg.CacheSize > 0 {
		s.cache = newVerdictCache(s.cfg.CacheSize)
	}
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/check", s.handleCheck)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s
}

// Handler returns the HTTP handler serving /v1/solve, /metrics, /healthz,
// and /readyz.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches the worker pool.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	s.workerWG.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	s.logf("absolverd: %d workers, queue depth %d", s.cfg.Workers, s.cfg.QueueDepth)
}

// ErrAlreadyShutdown reports a second Shutdown call.
var ErrAlreadyShutdown = errors.New("server: already shutting down")

// Shutdown makes the server stop admitting (new solves get 503), waits for
// every admitted job to finish, then stops the workers. If ctx expires
// first the error is returned and jobs keep draining in the background;
// admitted work is never cancelled by shutdown itself.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.started || s.draining {
		s.mu.Unlock()
		return ErrAlreadyShutdown
	}
	s.draining = true
	s.mu.Unlock()
	s.logf("absolverd: draining")

	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	close(s.queue)
	s.workerWG.Wait()
	s.logf("absolverd: drained")
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ---------------------------------------------------------------------------
// Worker pool.

func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// retryAfterHint estimates how long a bounced client should wait before
// retrying, as a Retry-After header value in seconds. A full queue hints
// roughly the backlog per worker — each queued-or-running job is about one
// solve the client is behind — clamped to [1, 30] so a deep backlog never
// tells clients to go away for minutes. A draining server hints a flat 5:
// the process is going away, and the retry should land on its replacement
// rather than hot-poll the corpse.
func (s *Server) retryAfterHint(draining bool) string {
	if draining {
		return "5"
	}
	workers := s.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	secs := 1 + (len(s.queue)+int(s.busy.Load()))/workers
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

func (s *Server) runJob(j *job) {
	defer s.jobs.Done()
	// Closing done last (after the busy gauge drops and run has recorded
	// its metrics) means a client that has its answer finds the job in
	// /metrics.
	defer close(j.done)
	s.busy.Add(1)
	defer s.busy.Add(-1)
	wait := time.Since(j.admitted)

	if d := s.cfg.SolveDelay; d > 0 {
		select {
		case <-time.After(d):
		case <-j.ctx.Done():
		}
	}

	start := time.Now()
	var outcome string
	j.final, outcome = j.run(j.ctx, wait, j.emit)
	if j.events != nil {
		close(j.events)
	}
	s.logf("absolverd: %s done %s wait=%v run=%v", j.name, outcome, wait, time.Since(start))
}

// classify buckets how a run ended: under verdict, the run's own answer,
// when it finished or stopped at its budget; canceled when the client went
// away; error otherwise. reason says why a run stopped short, for the
// response ("" when err is nil).
func classify(verdict string, err error) (class, reason string) {
	switch {
	case err == nil:
		return verdict, ""
	case errors.Is(err, core.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return verdict, "timeout"
	case errors.Is(err, core.ErrIterationLimit):
		return verdict, err.Error()
	case errors.Is(err, context.Canceled):
		return verdictCanceled, "canceled"
	}
	return verdictError, err.Error()
}

// solve runs the configured SolveFunc, defaulting to the engine.
func (s *Server) solve(ctx context.Context, p *core.Problem, params api.SolveParams, trace core.TraceFunc) (Outcome, error) {
	if s.cfg.SolveFunc != nil {
		return s.cfg.SolveFunc(ctx, p, params, trace)
	}
	base := params.Config()
	if params.Portfolio > 0 {
		// Knobs OR-compose onto every strategy's own configuration, as in
		// the stand-alone tool.
		strategies := portfolio.Compose(portfolio.DefaultStrategies(params.Portfolio), base)
		// N interleaved engine traces are not readable; streaming a
		// portfolio run emits only the final result event.
		out := portfolio.SolveWith(ctx, p, strategies, portfolio.Options{NoShare: params.NoShare})
		res := out.Result
		res.Stats = out.Stats // total work across members
		return Outcome{Result: res, Winner: out.Winner}, out.Err
	}
	base.Trace = trace
	if params.ExchangeURL != "" && s.cfg.AllowExchange {
		// Worker mode: share theory lemmas with sibling cube solves through
		// the coordinator's relay. The trailing Flush pushes lemmas learned
		// just before this cube's verdict to peers still running.
		nc := exchange.NewNetClient(params.ExchangeURL, params.ExchangeNode,
			exchange.NetOptions{PollInterval: s.cfg.ExchangePollInterval})
		defer nc.Flush()
		base.Exchange = nc
	}
	res, err := core.NewEngine(p, base).SolveContext(ctx)
	return Outcome{Result: res}, err
}

// ---------------------------------------------------------------------------
// HTTP handlers.

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, exitCode int, format string, args ...any) {
	writeJSON(w, status, api.ErrorResponse{Error: fmt.Sprintf(format, args...), ExitCode: exitCode})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ready := s.started && !s.draining
	s.mu.Unlock()
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, gauges{
		queueDepth:    len(s.queue),
		queueCapacity: cap(s.queue),
		workers:       s.cfg.Workers,
		workersBusy:   int(s.busy.Load()),
		cluster:       s.cfg.ClusterMetrics,
	})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var params api.SolveParams
	var problem *core.Problem
	if !s.parseRequest(w, r, "a problem body", func(q url.Values, body io.Reader) (err error) {
		if params, err = s.solveParams(q); err == nil {
			problem, err = s.parseProblem(body, params.Format)
		}
		return err
	}) {
		return
	}

	// Verdict cache: consulted before admission, so a hit costs no queue
	// slot and no worker. no_cache=1 bypasses it (alongside the engine's
	// own theory cache); streamed requests skip it — their value is the
	// trace, not the verdict.
	var cacheKey string
	if s.cache != nil && !params.Stream && !params.NoCache {
		cacheKey = canonicalProblemKey(problem)
		if ent, ok := s.cache.get(cacheKey); ok {
			certified := true
			if params.CheckModels && ent.resp.Status == core.StatusSat.String() {
				// Re-certify the cached witness against THIS problem; a
				// stale or hash-colliding entry fails and is evicted.
				if ent.model == nil || core.CertifyModel(problem, *ent.model) != nil {
					certified = false
				}
			}
			if certified {
				s.metrics.cacheHit()
				writeJSON(w, http.StatusOK, ent.resp)
				return
			}
			s.cache.drop(cacheKey)
		}
		s.metrics.cacheMiss()
	}

	final, ok := s.serveJob(w, r, params.Timeout, params.Stream, func(ctx context.Context, wait time.Duration, emit func(any)) (any, string) {
		var trace core.TraceFunc
		if params.Stream {
			trace = func(ev core.Event) { emit(api.TraceEvent(ev)) }
		}
		out, err := s.solve(ctx, problem, params, trace)
		resp, verdict := solveResponse(out, err)
		s.metrics.jobDone(verdict, out.Result.Stats, wait)
		if verdict == verdictError {
			return api.StreamEvent{Type: api.EventError, Error: err.Error()}, "verdict=" + verdict
		}
		// Only definitive, error-free outcomes enter the cache: unknown may
		// be deadline-relative and would poison later requests with laxer
		// limits.
		if cacheKey != "" && err == nil && (verdict == verdictSat || verdict == verdictUnsat) {
			s.cache.put(cacheKey, cacheEntry{resp: resp, model: out.Result.Model})
		}
		return api.StreamEvent{Type: api.EventResult, Result: &resp}, "verdict=" + verdict
	})
	if !ok || params.Stream {
		return
	}
	if ev := final.(api.StreamEvent); ev.Result != nil {
		writeJSON(w, http.StatusOK, ev.Result)
	} else {
		writeError(w, http.StatusInternalServerError, api.ExitInternal, "%s", ev.Error)
	}
}

// solveParams reads and checks the query of /v1/solve and /v1/batch.
func (s *Server) solveParams(q url.Values) (api.SolveParams, error) {
	p, err := api.ParseParams(q)
	switch {
	case err != nil:
		return p, fmt.Errorf("bad parameters: %w", err)
	case p.Portfolio > s.cfg.MaxPortfolio:
		return p, fmt.Errorf("portfolio %d exceeds the server maximum %d", p.Portfolio, s.cfg.MaxPortfolio)
	case p.ExchangeURL != "" && !s.cfg.AllowExchange:
		return p, errors.New("exchange_url requires a worker-mode server (absolverd -worker)")
	}
	return p, nil
}

// parseProblem reads and validates a problem in format: the /v1/solve body
// and the /v1/batch base.
func (s *Server) parseProblem(r io.Reader, format string) (*core.Problem, error) {
	var p *core.Problem
	var err error
	if format == api.FormatSMTLIB {
		var b *smtlib.Benchmark
		if b, err = smtlib.ParseReader(r, s.cfg.SMTLIBLimits); err == nil {
			p = b.ToProblem()
		}
	} else {
		p, err = dimacs.ParseLimited(r, s.cfg.DIMACSLimits)
	}
	if err != nil {
		return nil, fmt.Errorf("parse error: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("invalid problem: %w", err)
	}
	return p, nil
}

// parseRequest is the first step of every job endpoint: it insists on POST,
// caps the body at MaxBodyBytes and runs the endpoint's parse over the query
// and body. It answers a parse error itself — 413 when the body is too
// large, 400 otherwise, both counted in rejected_total — and reports
// whether the caller should go on.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request, what string, parse func(q url.Values, body io.Reader) error) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, api.ExitUsage, "POST %s to %s", what, r.URL.Path)
		return false
	}
	err := parse(r.URL.Query(), http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) || errors.Is(err, bufio.ErrTooLong) ||
		errors.Is(err, dimacs.ErrInputTooLarge) || errors.Is(err, smtlib.ErrInputTooLarge) {
		s.metrics.reject(rejectBodyTooLarge)
		writeError(w, http.StatusRequestEntityTooLarge, api.ExitUsage, "body too large: %v", err)
		return false
	}
	s.metrics.reject(rejectBadRequest)
	writeError(w, http.StatusBadRequest, api.ExitUsage, "%v", err)
	return false
}

// serveJob runs a parsed request as a job: it clamps the timeout, admits the
// job and waits for it. A streaming job's events go out as NDJSON while it
// runs, closed by its final event; otherwise the final event is returned for
// the caller to answer with. ok is false when admission answered instead.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, timeout time.Duration, stream bool, run runFunc) (final any, ok bool) {
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	timeout = min(timeout, s.cfg.MaxTimeout)
	// The deadline starts at admission: it covers queue wait plus run, and
	// the request context ties the job to the client's connection — a
	// disconnect cancels the run.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	j := &job{
		name:     path.Base(r.URL.Path),
		ctx:      ctx,
		admitted: time.Now(),
		run:      run,
		done:     make(chan struct{}),
	}
	if stream {
		// Room for a burst of events, so a slow flush does not stall the run
		// on every line.
		j.events = make(chan any, 64)
	}
	if !s.admit(w, j) {
		return nil, false
	}
	if stream {
		writeStream(w, j)
	} else {
		<-j.done
	}
	return j.final, true
}

// admit queues j, or answers the request with 503 (draining) or 429
// (queue full) and reports false. The mutex closes the race against
// Shutdown (no job is admitted after draining is set); the non-blocking
// send implements the bounded queue. The job is counted before the send,
// since a worker may finish it before the send returns.
func (s *Server) admit(w http.ResponseWriter, j *job) bool {
	s.mu.Lock()
	draining, queued := !s.started || s.draining, false
	if !draining {
		s.jobs.Add(1)
		select {
		case s.queue <- j:
			queued = true
		default:
			s.jobs.Done()
		}
	}
	s.mu.Unlock()
	switch {
	case queued:
		return true
	case draining:
		s.metrics.reject(rejectDraining)
		w.Header().Set("Retry-After", s.retryAfterHint(true))
		writeError(w, http.StatusServiceUnavailable, api.ExitUnknown, "server is draining")
	default:
		s.metrics.reject(rejectQueueFull)
		w.Header().Set("Retry-After", s.retryAfterHint(false))
		writeError(w, http.StatusTooManyRequests, api.ExitUnknown,
			"queue full (%d workers busy, %d queued)", s.cfg.Workers, cap(s.queue))
	}
	return false
}

// solveResponse renders one solve outcome — a whole /v1/solve job or a
// single batch instance — onto the wire and classifies it for
// solves_total. Under verdictError the response must not be served; err
// is the diagnostic.
func solveResponse(out Outcome, err error) (resp api.SolveResponse, verdict string) {
	res := out.Result
	resp = api.SolveResponse{
		Status:   res.Status.String(),
		ExitCode: api.ExitCode(res.Status),
		Winner:   out.Winner,
		Stats:    api.StatsFrom(res.Stats),
	}
	if res.Status == core.StatusSat && res.Model != nil {
		resp.Model = api.ModelFrom(*res.Model)
	}
	verdict, resp.Reason = classify(resp.Status, err)
	return resp, verdict
}

// writeStream answers a streaming job: one NDJSON line per event while it
// runs, then its final event. Admission fixed the status code already:
// streaming bodies are always 200. Once the client is gone the loop stops
// writing but keeps draining, so the worker's sends never park.
func writeStream(w http.ResponseWriter, j *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	write := func(v any) error {
		err := enc.Encode(v)
		if err == nil && fl != nil {
			fl.Flush()
		}
		return err
	}
	if fl != nil {
		fl.Flush()
	}
	var gone error
	for ev := range j.events {
		if gone == nil {
			gone = write(ev)
		}
	}
	<-j.done
	if gone == nil {
		_ = write(j.final)
	}
}
