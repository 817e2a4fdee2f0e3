package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"absolver/internal/lustre"
	"absolver/internal/mc"
	"absolver/internal/server/api"
	"absolver/internal/simulink"
)

// POST /v1/check runs the model-checking front end — BMC + k-induction
// over a Lustre program or Simulink model — on a worker, streaming one
// NDJSON depth event per base/induction solve and a terminal result or
// error event. A check occupies one queue slot and one worker for its
// whole duration and honours the same admission and drain contracts as
// /v1/solve.

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var params api.CheckParams
	var prog *lustre.Program
	if !s.parseRequest(w, r, "a program body", func(q url.Values, body io.Reader) (err error) {
		params, err = api.ParseCheckParams(q)
		switch {
		case err != nil:
			return fmt.Errorf("bad parameters: %w", err)
		case params.K > s.cfg.MaxCheckDepth:
			return fmt.Errorf("k %d exceeds the server maximum %d", params.K, s.cfg.MaxCheckDepth)
		}
		prog, err = parseProgram(body, params.Format)
		return err
	}) {
		return
	}
	s.serveJob(w, r, params.Timeout, true, func(ctx context.Context, wait time.Duration, emit func(any)) (any, string) {
		return s.runCheck(ctx, wait, emit, prog, params)
	})
}

// parseProgram reads a Lustre program, or a Simulink model translated to
// one.
func parseProgram(body io.Reader, format string) (*lustre.Program, error) {
	text, err := io.ReadAll(body)
	if err != nil {
		return nil, fmt.Errorf("program body: %w", err)
	}
	var prog *lustre.Program
	if format == api.FormatSimulink {
		var m *simulink.Model
		if m, err = simulink.ParseModel(strings.NewReader(string(text))); err == nil {
			prog, err = lustre.FromSimulink(m)
		}
	} else {
		prog, err = lustre.Parse(string(text))
	}
	if err != nil {
		return nil, fmt.Errorf("program: %w", err)
	}
	return prog, nil
}

// runCheck runs an admitted check, emitting per-depth verdicts; its final
// event is the result, or the error.
func (s *Server) runCheck(ctx context.Context, wait time.Duration, emit func(any), prog *lustre.Program, params api.CheckParams) (any, string) {
	opts := mc.Options{
		Property:    params.Property,
		MaxDepth:    params.K,
		NoInduction: params.NoInduction,
		Progress: func(ev mc.DepthEvent) {
			emit(api.CheckEvent{Type: api.CheckEventDepth, Depth: &api.CheckDepth{
				Depth: ev.Depth, Phase: ev.Phase, Status: ev.Status,
			}})
		},
	}
	res, err := mc.Check(ctx, prog, opts)
	// A deadline or cancellation still leaves a sound partial result:
	// bound_reached, not a failed request.
	verdict, reason := classify(string(res.Verdict), err)
	if verdict == verdictError {
		s.metrics.checkDone(verdict, 0, false, res.Stats, wait)
		return api.CheckEvent{Type: api.EventError, Error: err.Error()}, "verdict=" + verdict
	}
	s.metrics.checkDone(verdict, res.Depths, res.Induction, res.Stats, wait)

	resp := api.CheckResponse{
		Verdict:   string(res.Verdict),
		K:         res.K,
		ExitCode:  api.CheckExitCode(string(res.Verdict)),
		Property:  opts.Property,
		Induction: res.Induction,
		Certified: res.Certified,
		Depths:    res.Depths,
		Reason:    res.Reason,
		Stats:     api.StatsFrom(res.Stats),
	}
	if resp.Reason == "" {
		resp.Reason = reason
	}
	if res.Trace != nil {
		resp.Trace = &api.CheckTrace{
			Property: res.Trace.Property,
			Step:     res.Trace.Step,
			Inputs:   res.Trace.Inputs,
		}
	}
	return api.CheckEvent{Type: api.EventResult, Result: &resp}, fmt.Sprintf("verdict=%s k=%d", verdict, res.K)
}
