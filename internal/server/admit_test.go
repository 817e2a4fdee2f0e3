package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"absolver/internal/core"
	"absolver/internal/dimacs"
	"absolver/internal/server"
	"absolver/internal/server/api"
)

// TestAdmissionInstantSolves hammers admission with solves that finish at
// once. A worker can then finish a job before the handler's queue send
// returns; the job must already be counted, or the worker's Done drives
// the drain WaitGroup negative ("sync: negative WaitGroup counter").
// Requests run one at a time per server so the counter keeps returning
// to zero, several servers side by side so handlers get descheduled.
func TestAdmissionInstantSolves(t *testing.T) {
	const servers, perServer = 8, 2500
	instant := func(context.Context, *core.Problem, api.SolveParams, core.TraceFunc) (server.Outcome, error) {
		return server.Outcome{Result: core.Result{Status: core.StatusSat}}, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		srv := server.New(server.Config{Workers: 1, QueueDepth: 1, CacheSize: -1, SolveFunc: instant})
		srv.Start()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perServer; j++ {
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(satDIMACS)))
				if rec.Code != http.StatusOK {
					t.Errorf("request %d: HTTP %d: %s", j, rec.Code, rec.Body)
					return
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestStreamInprocessCounters checks that a streamed solve's inprocess
// trace lines carry the SAT inprocessing deltas exactly as the in-process
// TraceFunc sees them for the same problem and knobs.
func TestStreamInprocessCounters(t *testing.T) {
	// The paper's Fig. 2 instance: its first Boolean query probes
	// literals and compacts the clause arena.
	const fig2 = `p cnf 10 15
-3 4 0
-3 5 0
3 -4 -5 0
-7 -8 0
7 8 0
6 -7 0
6 -9 0
-6 7 9 0
-2 3 0
-2 6 0
2 -3 -6 0
-1 2 0
-1 10 0
1 -2 -10 0
1 0
c def int 4 i >= 0
c def int 5 j >= 0
c def int 8 2 * i + j < 10
c def int 9 i + j < 5
c def real 10 a * x + 3.5 / (4 - y) + 2 * y >= 7.1
`
	type inprocess struct{ Subsumed, Probed, Compactions int64 }
	p, err := dimacs.ParseString(fig2)
	if err != nil {
		t.Fatal(err)
	}
	var want []inprocess
	trace := func(ev core.Event) {
		if ev.Kind == core.EventInprocess {
			want = append(want, inprocess{ev.Subsumed, ev.Probed, ev.Compactions})
		}
	}
	if _, err := core.NewEngine(p, core.Config{Trace: trace}).Solve(); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the in-process solve emitted no inprocess event (test premise broken)")
	}

	srv := server.New(server.Config{Workers: 1, QueueDepth: 1})
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Shutdown(context.Background())
	params := api.SolveParams{Stream: true}
	resp, err := http.Post(hs.URL+"/v1/solve?"+params.Values().Encode(), "text/plain", strings.NewReader(fig2))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []inprocess
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Kind string `json:"kind"`
			inprocess
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		if line.Kind == core.EventInprocess.String() {
			got = append(got, line.inprocess)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed inprocess counters %+v, want %+v", got, want)
	}
}
