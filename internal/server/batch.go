package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"absolver/internal/core"
	"absolver/internal/server/api"
)

// POST /v1/batch solves an NDJSON stream of related instances — a shared
// base problem plus per-instance clause deltas and assumptions — over one
// warm core.Session on a single worker. The batch occupies one queue slot
// and one worker for its whole duration, under one request deadline, and
// honours the same admission and drain contracts as /v1/solve. Sessions
// are single-strategy: portfolio, restart and exchange parameters are
// rejected.

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var params api.SolveParams
	var problem *core.Problem
	var instances []api.BatchInstance
	if !s.parseRequest(w, r, "a batch body", func(q url.Values, body io.Reader) (err error) {
		if params, err = s.solveParams(q); err != nil {
			return err
		}
		// A batch runs over one warm session: racing differently
		// configured engines, restarting the Boolean solver or attaching
		// to a lemma relay would discard or bypass exactly the state the
		// session exists to keep.
		switch {
		case params.Portfolio > 0:
			return errors.New("batch sessions are single-strategy; portfolio is not supported")
		case params.Restart:
			return errors.New("batch sessions are incremental; restart is not supported")
		case params.ExchangeURL != "":
			return errors.New("batch sessions do not attach to a lemma relay; exchange_url is not supported")
		}
		problem, instances, err = s.parseBatch(body, params.Format)
		return err
	}) {
		return
	}
	s.serveJob(w, r, params.Timeout, true, func(ctx context.Context, wait time.Duration, emit func(any)) (any, string) {
		return s.runBatch(ctx, wait, emit, problem, params, instances)
	})
}

// parseBatch reads a batch body: one {"base": ...} header line, then one
// instance line each.
func (s *Server) parseBatch(body io.Reader, format string) (*core.Problem, []api.BatchInstance, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), int(s.cfg.MaxBodyBytes)+1)
	var header *api.BatchRequest
	var instances []api.BatchInstance
	for line := 1; sc.Scan(); line++ {
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		if header == nil {
			header = &api.BatchRequest{}
			if err := json.Unmarshal(text, header); err != nil {
				return nil, nil, fmt.Errorf("batch header (line %d): %w", line, err)
			}
			continue
		}
		var inst api.BatchInstance
		if err := json.Unmarshal(text, &inst); err != nil {
			return nil, nil, fmt.Errorf("batch instance (line %d): %w", line, err)
		}
		if instances = append(instances, inst); len(instances) > s.cfg.MaxBatchInstances {
			return nil, nil, fmt.Errorf("batch exceeds the server maximum of %d instances", s.cfg.MaxBatchInstances)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("batch body: %w", err)
	}
	if header == nil {
		return nil, nil, errors.New(`batch body is empty: want a {"base": ...} header line`)
	}
	problem, err := s.parseProblem(strings.NewReader(header.Base), format)
	if err != nil {
		return nil, nil, fmt.Errorf("base problem: %w", err)
	}
	return problem, instances, nil
}

// runBatch solves an admitted batch over one warm session, emitting one
// item event per instance; its final event is the summary. Each instance
// runs in its own frame, so deltas never leak between instances while
// learned clauses, theory verdicts and solver heuristics carry over.
func (s *Server) runBatch(ctx context.Context, wait time.Duration, emit func(any), problem *core.Problem, params api.SolveParams, instances []api.BatchInstance) (any, string) {
	sess, err := core.NewSession(problem, params.Config())
	if err != nil {
		s.metrics.jobDone(verdictError, core.Stats{}, wait)
		return api.BatchEvent{Type: api.EventError, Error: err.Error()}, "error=" + err.Error()
	}

	summary := api.BatchSummary{Total: len(instances)}
	for i, inst := range instances {
		res, err := sess.SolveFrame(ctx, inst.Clauses, inst.Assume)
		resp, verdict := solveResponse(Outcome{Result: res}, err)
		s.metrics.jobDone(verdict, res.Stats, wait)
		wait = 0 // the first instance carries the queue wait
		item := api.BatchItemResult{Index: i, ID: inst.ID, Result: &resp}
		switch verdict {
		case verdictError:
			summary.Errors++
			item.Result, item.Error = nil, err.Error()
		case verdictSat, verdictUnsat:
			summary.Solved++
		}
		emit(api.BatchEvent{Type: api.EventItem, Item: &item})
	}
	s.metrics.batchDone(summary.Total)
	return api.BatchEvent{Type: api.EventEnd, Summary: &summary}, fmt.Sprintf("instances=%d", len(instances))
}
