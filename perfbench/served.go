package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"absolver/internal/core"
	"absolver/internal/dimacs"
	"absolver/internal/server"
	"absolver/internal/server/api"
	"absolver/internal/server/client"
	"absolver/internal/sudoku"
	"absolver/internal/testkit"
)

// The served request mix. Sorted by latency the classes fall into two
// blocks: cache hits and small problems (server overhead, well under a
// millisecond) and Sudoku puzzles (milliseconds of Boolean search). With
// 80% fast requests p50 lies mid-way through the fast block and p90
// mid-way through the Sudoku block, away from the class boundary.
//
// The puzzles are a fixed pool, GeneratePuzzle(0..199, 40), placed by the
// seed: they carry nearly all the solve time, and a fresh draw per seed
// moved the pass time by about 10%. The seed draws the small problems,
// the repeats and the order.
const (
	servedRequests = 1000
	servedSudoku   = 200 // 20%
	servedRepeats  = 250 // 25%, repeats of earlier small requests
	sudokuGivens   = 40
	// servedClients is the closed loop's size. On a 2-core machine two
	// clients kept both cores busy with solving alone, leaving the
	// server's HTTP and GC work to contend with it; one client keeps a
	// core for them and halved the pass-to-pass variation.
	servedClients = 1
)

type request struct {
	class  string // "small", "sudoku" or "repeat"
	text   string
	of     int // for repeats: index of the original request
	puzzle sudoku.Puzzle
}

// served drives an in-process absolverd (default workers and verdict
// cache, fresh per pass) through server/client in a closed loop.
type served struct {
	reqs []request

	// oracle memoises reference verdicts across passes. Parsed problems
	// are not kept: a larger live heap would slow every later pass.
	mu     sync.Mutex
	oracle map[int]testkit.Verdict
}

// genRequests draws the request sequence from the seed.
func genRequests(seed int64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	classes := make([]string, servedRequests)
	for i := range classes {
		switch {
		case i < servedSudoku:
			classes[i] = "sudoku"
		case i < servedSudoku+servedRepeats:
			classes[i] = "repeat"
		default:
			classes[i] = "small"
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	// A repeat needs an earlier small request: move the first small one
	// to the front.
	for i, c := range classes {
		if c == "small" {
			classes[0], classes[i] = classes[i], classes[0]
			break
		}
	}
	frags := []testkit.Fragment{testkit.FragBool, testkit.FragLinear, testkit.FragMixedInt}
	reqs := make([]request, len(classes))
	var smalls []int
	puzzles := 0
	for i, c := range classes {
		r := request{class: c, of: -1}
		var p *core.Problem
		switch c {
		case "small":
			p = testkit.Generate(rng.Int63(), frags[rng.Intn(len(frags))])
			smalls = append(smalls, i)
		case "sudoku":
			r.puzzle = sudoku.GeneratePuzzle(int64(puzzles), sudokuGivens)
			puzzles++
			p = sudoku.EncodeMixed(&r.puzzle)
		case "repeat":
			r.of = smalls[rng.Intn(len(smalls))]
			r.text = reqs[r.of].text
		}
		if p != nil {
			text, err := dimacs.WriteString(p)
			if err != nil {
				return nil, err
			}
			r.text = text
		}
		reqs[i] = r
	}
	return reqs, nil
}

func setupServed(seed int64) (workload, error) {
	reqs, err := genRequests(seed)
	if err != nil {
		return nil, err
	}
	// Booting is part of set-up; every pass boots its own server (a fresh
	// verdict cache) outside the timed window.
	b, err := boot(nil, nil)
	if err != nil {
		return nil, err
	}
	b.stop()
	return &served{reqs: reqs, oracle: map[int]testkit.Verdict{}}, nil
}

func (s *served) inputs() []string {
	out := make([]string, len(s.reqs))
	for i, r := range s.reqs {
		out[i] = r.class + "\n" + r.text
	}
	return out
}

// booted is a running in-process absolverd.
type booted struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// instKey carries a request's instance ID from the client through an HTTP
// header into the server's solve context (traced passes only).
type instKey struct{}

const instHeader = "X-Perfbench-Instance"

// boot starts a server with the default configuration. A traced pass
// passes tr: the server then solves through the timing plug-ins, tagged
// with the instance ID the client sent.
func boot(tr *tracer, tot *layerCounts) (*booted, error) {
	var cfg server.Config
	if tr != nil {
		cfg.SolveFunc = tracedSolve(tr, tot)
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if id, err := strconv.Atoi(r.Header.Get(instHeader)); err == nil {
				r = r.WithContext(context.WithValue(r.Context(), instKey{}, id))
			}
			inner.ServeHTTP(w, r)
		})
	}
	b := &booted{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		_ = b.hs.Serve(ln)
	}()
	srv.Start()
	return b, nil
}

func (b *booted) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx)
	_ = b.hs.Shutdown(ctx)
	<-b.done
}

// tracedSolve decides a job the way the server's default path does for a
// single-engine request, with the solver plug-ins behind timing wrappers.
func tracedSolve(tr *tracer, tot *layerCounts) server.SolveFunc {
	return func(ctx context.Context, p *core.Problem, params api.SolveParams, trace core.TraceFunc) (server.Outcome, error) {
		inst, _ := ctx.Value(instKey{}).(int)
		pl := newPlugins(probe{tr: tr, inst: inst, tot: tot}, false)
		cfg := pl.cfg
		cfg.RestartBoolean = params.Restart
		cfg.NoIIS = params.NoIIS
		cfg.NoGroundLemmas = params.NoLemmas
		cfg.NoTheoryCache = params.NoCache
		cfg.NoPolyAR = params.NoPolyAR
		cfg.CheckModels = params.CheckModels
		cfg.Trace = trace
		start := time.Now()
		res, err := core.NewEngine(p, cfg).SolveContext(ctx)
		tr.since(inst, "core", "solve", start)
		tot.addSolve(res.Stats, pl)
		return server.Outcome{Result: res}, err
	}
}

// instTransport copies the instance ID from the request context into the
// header the traced server reads.
type instTransport struct{ base http.RoundTripper }

func (t instTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(instKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(instHeader, strconv.Itoa(id))
	}
	return t.base.RoundTrip(r)
}

type reply struct {
	resp    *api.SolveResponse
	err     error
	latency time.Duration
}

func (s *served) pass(tr *tracer, tot *layerCounts) passStats {
	var ps passStats
	b, err := boot(tr, tot)
	if err != nil {
		ps.jobs, ps.failed = 1, 1
		ps.failures = []string{fmt.Sprintf("boot: %v", err)}
		return ps
	}
	transport := &http.Transport{MaxIdleConnsPerHost: servedClients}
	hc := &http.Client{Transport: transport}
	if tr != nil {
		hc.Transport = instTransport{transport}
	}
	cl := &client.Client{BaseURL: b.url, HTTP: hc}

	base := tr.newPass()
	replies := make([]reply, len(s.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	w := startWindow()
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.reqs) {
					return
				}
				ctx := context.Background()
				if tr != nil {
					ctx = context.WithValue(ctx, instKey{}, base+i+1)
					tr.name(base+i+1, s.reqs[i].class)
				}
				start := time.Now()
				resp, err := cl.Solve(ctx, s.reqs[i].text, api.SolveParams{})
				end := time.Now()
				tr.record(base+i+1, "server", "request", start, end)
				replies[i] = reply{resp: resp, err: err, latency: end.Sub(start)}
			}
		}()
	}
	wg.Wait()
	w.stop(&ps)

	if tr != nil {
		s.scrape(cl, tot)
	}
	transport.CloseIdleConnections()
	b.stop()

	solved := map[int]bool{}
	for _, sp := range tr.snapshot() {
		if sp.Layer == "core" {
			solved[sp.Inst] = true
		}
	}
	for i, r := range replies {
		ps.jobs++
		if tr != nil && r.err == nil && solved[base+i+1] {
			tot.add(func(c *layerCounts) {
				c.serverOverheadMS = append(c.serverOverheadMS, durMS(r.latency)-r.resp.Stats.WallMS)
				c.serverSolveMS = append(c.serverSolveMS, r.resp.Stats.WallMS)
			})
		}
		decided, err := s.check(probe{tr: tr, inst: base + i + 1, tot: tot}, i, r)
		ps.tally(fmt.Sprintf("request %d (%s)", i, s.reqs[i].class), decided, err)
	}
	return ps
}

// scrape folds the pass's /metrics totals into the layer counters (each
// pass has its own server, so totals are pass deltas).
func (s *served) scrape(cl *client.Client, tot *layerCounts) {
	m, err := cl.Metrics(context.Background())
	if err != nil {
		return
	}
	var rejected float64
	for k, v := range m {
		if strings.HasPrefix(k, "absolverd_rejected_total") {
			rejected += v
		}
	}
	tot.add(func(c *layerCounts) {
		c.queueWait += m["absolverd_queue_wait_seconds_total"]
		c.cacheHits += m["absolverd_cache_hits_total"]
		c.cacheMisses += m["absolverd_cache_misses_total"]
		c.rej += rejected
	})
}

// check verifies one reply against its reference: the brute-force oracle
// for small problems (and their repeats), sudoku.Verify for puzzles, and
// model certification for every sat answer.
func (s *served) check(pr probe, i int, r reply) (bool, error) {
	if r.err != nil {
		return false, r.err
	}
	if r.resp.Reason == "timeout" {
		return false, fmt.Errorf("timed out")
	}
	orig := i
	if s.reqs[i].class == "repeat" {
		orig = s.reqs[i].of
	}
	p, err := dimacs.ParseString(s.reqs[orig].text)
	if err != nil {
		return false, err
	}
	req := s.reqs[orig]
	var want testkit.Verdict
	if req.class == "sudoku" {
		want = testkit.Sat
	} else {
		want = s.reference(orig, p)
	}
	var res core.Result
	switch r.resp.Status {
	case "sat":
		res.Status = core.StatusSat
		if r.resp.Model != nil {
			res.Model = &core.Model{Bool: r.resp.Model.Bool, Real: r.resp.Model.Real}
		}
	case "unsat":
		res.Status = core.StatusUnsat
	default:
		res.Status = core.StatusUnknown
	}
	decided, err := checkVerdict(pr, p, res, want)
	if err != nil || !decided || req.class != "sudoku" {
		return decided, err
	}
	g, err := sudoku.DecodeMixed(res.Model)
	if err == nil {
		err = sudoku.Verify(&req.puzzle, g)
	}
	return err == nil, err
}

func (s *served) reference(i int, p *core.Problem) testkit.Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.oracle[i]
	if !ok {
		v, _ = (&testkit.Oracle{}).Decide(p)
		s.oracle[i] = v
	}
	return v
}
