package server_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"absolver/internal/server"
	"absolver/internal/server/api"
	"absolver/internal/server/client"
)

const counterLus = `node counter(inc: bool) returns (ok: bool);
var n: int;
let
  n = 0 -> (if inc then pre n + 1 else pre n);
  ok = n <= 3;
tel;
`

const sat3Lus = `node sat3(inc: bool) returns (ok: bool);
var n: int;
let
  n = 0 -> (if inc and pre n < 3 then pre n + 1 else pre n);
  ok = n <= 3;
tel;
`

func TestCheckFalsifiedEndToEnd(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	ctx := context.Background()

	var depths []api.CheckDepth
	res, err := c.Check(ctx, counterLus, api.CheckParams{K: 6}, func(d api.CheckDepth) error {
		depths = append(depths, d)
		return nil
	})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if res.Verdict != api.CheckFalsified || res.K != 4 || res.ExitCode != api.ExitUnsat {
		t.Fatalf("result = %+v, want falsified at 4 with exit %d", res, api.ExitUnsat)
	}
	if !res.Certified {
		t.Fatalf("counterexample not certified: %+v", res)
	}
	if res.Trace == nil || res.Trace.Step != 4 || len(res.Trace.Inputs) != 5 {
		t.Fatalf("trace = %+v, want 5 input instants failing at step 4", res.Trace)
	}
	// Every depth up to the violation streamed a per-solve report, and the
	// last one is the satisfiable base case that found the bug.
	if len(depths) == 0 {
		t.Fatal("no depth events streamed")
	}
	last := depths[len(depths)-1]
	if last.Depth != 4 || last.Phase != "base" || last.Status != "sat" {
		t.Fatalf("last depth event = %+v, want base sat at depth 4", last)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	expect := map[string]float64{
		`absolverd_check_requests_total{verdict="falsified"}`: 1,
		`absolverd_check_requests_total{verdict="proved"}`:    0,
	}
	for k, want := range expect {
		if got := m[k]; got != want {
			t.Errorf("metric %s = %g, want %g", k, got, want)
		}
	}
	if m["absolverd_check_depths_total"] < 4 {
		t.Errorf("check_depths_total = %g, want >= 4", m["absolverd_check_depths_total"])
	}
}

func TestCheckProvedEndToEnd(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	ctx := context.Background()

	res, err := c.Check(ctx, sat3Lus, api.CheckParams{K: 8, Property: "ok"}, nil)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if res.Verdict != api.CheckProved || res.ExitCode != api.ExitSat || !res.Induction {
		t.Fatalf("result = %+v, want an inductive proof with exit 0", res)
	}
	if res.Property != "ok" || res.Trace != nil {
		t.Fatalf("result = %+v, want property ok and no trace", res)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m[`absolverd_check_requests_total{verdict="proved"}`] != 1 {
		t.Errorf("proved counter = %g, want 1", m[`absolverd_check_requests_total{verdict="proved"}`])
	}
	if m["absolverd_check_induction_total"] != 1 {
		t.Errorf("induction counter = %g, want 1", m["absolverd_check_induction_total"])
	}
}

func TestCheckBoundReached(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	res, err := c.Check(context.Background(), counterLus,
		api.CheckParams{K: 2, NoInduction: true}, nil)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if res.Verdict != api.CheckBoundReached || res.K != 2 || res.ExitCode != api.ExitUnknown {
		t.Fatalf("result = %+v, want bound_reached at 2 with exit %d", res, api.ExitUnknown)
	}
}

func TestCheckSimulinkFormat(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	model := `model thresh
block in inport
block lim constant 4
block cmp relop >=
block ok outport
line in -> cmp 1
line lim -> cmp 2
line cmp -> ok 1
`
	res, err := c.Check(context.Background(), model,
		api.CheckParams{Format: api.FormatSimulink, K: 2}, nil)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if res.Verdict != api.CheckFalsified || res.K != 0 {
		t.Fatalf("result = %+v, want falsified at step 0", res)
	}
}

func TestCheckBadRequests(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, QueueDepth: 2, MaxCheckDepth: 10})
	srv.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	cases := []struct {
		name, target, body string
	}{
		{"bad format", "/v1/check?format=midi", counterLus},
		{"k over max", "/v1/check?k=11", counterLus},
		{"negative k", "/v1/check?k=-1", counterLus},
		{"bad timeout", "/v1/check?timeout=soon", counterLus},
		{"garbage program", "/v1/check", "node garbage"},
		{"bad simulink", "/v1/check?format=simulink", "block without model"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, tc.target, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, rec.Code)
		}
	}
	// GET is not allowed.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/check", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: HTTP %d, want 405", rec.Code)
	}
}

// TestCheckCanceledIsCounted: a check whose client is gone before it runs
// is counted as canceled, like a disconnected solve, not as bound_reached.
func TestCheckCanceledIsCounted(t *testing.T) {
	srv, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/check?k=6", strings.NewReader(counterLus)).WithContext(ctx)
	srv.Handler().ServeHTTP(httptest.NewRecorder(), req)

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	expect := map[string]float64{
		`absolverd_check_requests_total{verdict="canceled"}`:      1,
		`absolverd_check_requests_total{verdict="bound_reached"}`: 0,
	}
	for k, want := range expect {
		if got, ok := m[k]; !ok || got != want {
			t.Errorf("metric %s = %g (present %v), want %g", k, got, ok, want)
		}
	}
}

func TestCheckHonorsDrainContract(t *testing.T) {
	srv, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	_, err := c.Check(context.Background(), counterLus, api.CheckParams{K: 4}, nil)
	var se *client.Error
	if err == nil || !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("check while draining: %v, want 503", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("draining rejection without Retry-After: %+v", se)
	}
}
