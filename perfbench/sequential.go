package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"absolver/internal/bench"
	"absolver/internal/core"
	"absolver/internal/dimacs"
	"absolver/internal/fischer"
	"absolver/internal/lustre"
	"absolver/internal/mc"
	"absolver/internal/smtlib"
	"absolver/internal/testkit"
)

// job is one instance of a sequential workload.
type job struct {
	name string
	// text is the input as the solver reads it, for the determinism test.
	text string
	run  func(p probe) outcome
}

// outcome is what one job produced. check runs after the pass, outside
// the timed window, and compares the verdict with an independent
// reference: decided reports a definitive verdict of the expected class,
// a non-nil error a contradiction.
type outcome struct {
	status string
	err    error
	check  func(p probe) (decided bool, err error)
}

// sequential runs its jobs one after another in a pass.
type sequential struct{ jobs []job }

func (s *sequential) inputs() []string {
	out := make([]string, len(s.jobs))
	for i, j := range s.jobs {
		out[i] = j.name + "\n" + j.text
	}
	return out
}

func (s *sequential) pass(tr *tracer, tot *layerCounts) passStats {
	outs := make([]outcome, len(s.jobs))
	var ps passStats
	base := tr.newPass()
	for i, j := range s.jobs {
		tr.name(base+i+1, j.name)
	}
	w := startWindow()
	for i, j := range s.jobs {
		outs[i] = j.run(probe{tr: tr, inst: base + i + 1, tot: tot})
	}
	w.stop(&ps)
	for i, o := range outs {
		ps.jobs++
		decided, err := false, o.err
		if err == nil {
			decided, err = o.check(probe{tr: tr, inst: base + i + 1, tot: tot})
		}
		ps.tally(s.jobs[i].name, decided, err)
	}
	return ps
}

// solveJob solves one problem with fresh plug-ins and certifies a sat
// model afterwards. want returns the reference verdict: a known answer or
// the brute-force oracle's.
func solveJob(name string, external bool, p *core.Problem, text string, want func() testkit.Verdict) job {
	return job{name: name, text: text, run: func(pr probe) outcome {
		pl := newPlugins(pr, external)
		start := time.Now()
		res, err := core.NewEngine(p, pl.cfg).SolveContext(context.Background())
		pr.tr.since(pr.inst, "core", "solve", start)
		pr.tot.addSolve(res.Stats, pl)
		return outcome{status: res.Status.String(), err: err, check: func(pr probe) (bool, error) {
			return checkVerdict(pr, p, res, want())
		}}
	}}
}

// checkVerdict compares an engine result with the reference verdict and
// certifies a sat model through the circuit semantics and Problem.Check.
func checkVerdict(pr probe, p *core.Problem, res core.Result, want testkit.Verdict) (bool, error) {
	switch res.Status {
	case core.StatusSat:
		if want == testkit.Unsat {
			return false, fmt.Errorf("sat, reference says unsat")
		}
		start := time.Now()
		err := certify(p, res.Model)
		pr.tr.since(pr.inst, "certify", "model", start)
		return err == nil, err
	case core.StatusUnsat:
		if want == testkit.Sat {
			return false, fmt.Errorf("unsat, reference says sat")
		}
		return true, nil
	}
	return false, nil
}

func certify(p *core.Problem, m *core.Model) error {
	if m == nil {
		return fmt.Errorf("sat without a model")
	}
	if err := core.CertifyModel(p, *m); err != nil {
		return err
	}
	return p.Check(*m)
}

// oracleVerdict memoises the brute-force oracle; it runs at most once per
// problem and only inside checks, so it is never timed.
func oracleVerdict(p *core.Problem) func() testkit.Verdict {
	var v testkit.Verdict
	done := false
	return func() testkit.Verdict {
		if !done {
			v, _ = (&testkit.Oracle{}).Decide(p)
			done = true
		}
		return v
	}
}

func known(s core.Status) func() testkit.Verdict {
	v := testkit.Inconclusive
	switch s {
	case core.StatusSat:
		v = testkit.Sat
	case core.StatusUnsat:
		v = testkit.Unsat
	}
	return func() testkit.Verdict { return v }
}

// shuffle orders the jobs by the seed.
func shuffle(jobs []job, seed int64) []job {
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// generatedPool is the block of testkit seeds whose nonlinear problems
// join Table 1. It is fixed rather than drawn from the run's seed: about 1%
// of generated problems spend 0.4-0.6 s in PolyAR, so a fresh draw per
// seed moved wall time by up to a quarter between seeds. Seeds 0-199 hold
// five PolyAR rescues and one problem the oracle cannot decide.
const generatedPool = 200

// setupNonlinear builds Table 1 (steering converted from its Simulink
// model, the other rows parsed from DIMACS) and the generated nonlinear
// problems, rendered to DIMACS text and parsed back; the seed orders them.
func setupNonlinear(seed int64) (workload, error) {
	var jobs []job
	for _, inst := range bench.Table1Instances() {
		p, err := inst.Build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", inst.Name, err)
		}
		text, err := dimacs.WriteString(p)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, solveJob(inst.Name, false, p, text, known(inst.Want)))
	}
	for s := int64(0); s < generatedPool; s++ {
		text, err := dimacs.WriteString(testkit.Generate(s, testkit.FragNonlinear))
		if err != nil {
			return nil, err
		}
		p, err := dimacs.ParseString(text)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, solveJob(fmt.Sprintf("generated/%d", s), false, p, text, oracleVerdict(p)))
	}
	return &sequential{shuffle(jobs, seed)}, nil
}

// setupFischer renders FISCHER1-3 to SMT-LIB, parses them back and solves
// each in the paper's external-restart mode and in the default incremental
// mode. All rows are satisfiable.
func setupFischer(seed int64) (workload, error) {
	var jobs []job
	for n := 1; n <= 3; n++ {
		text := fischer.Generate(fischer.Params{N: n}).SMTLIB()
		b, err := smtlib.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("FISCHER%d: %w", n, err)
		}
		p := b.ToProblem()
		jobs = append(jobs,
			solveJob(fmt.Sprintf("FISCHER%d/restart", n), true, p, text, known(core.StatusSat)),
			solveJob(fmt.Sprintf("FISCHER%d/incremental", n), false, p, text, known(core.StatusSat)))
	}
	return &sequential{shuffle(jobs, seed)}, nil
}

// checkModel is one model-checking instance with its known answer.
type checkModel struct {
	name, text, property string
	prog                 *lustre.Program
	depth                int
	bounds               map[string][2]float64
	want                 mc.Verdict
	wantK                int
}

// setupCheck parses the model-checking set: Fischer's protocol with the
// timing rule kept (bound reached at depth 4) and broken (A=1, B=0:
// falsified at instant 4), and the steering case study posed as the
// safety property "the critical scenario never occurs" (falsified at 0).
func setupCheck(seed int64) (workload, error) {
	models := []checkModel{
		{name: "fischer_safe", text: fischer.LustreSafe(), depth: 4, want: mc.BoundReached, wantK: 4},
		{name: "fischer_broken_a1b0", text: fischer.Lustre(1, 0), depth: 6, want: mc.Falsified, wantK: 4},
	}
	for i := range models {
		prog, err := lustre.Parse(models[i].text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", models[i].name, err)
		}
		models[i].prog = prog
	}
	for _, inst := range bench.CheckInstances() {
		if inst.Name != "steering" {
			continue
		}
		prog, err := inst.Build()
		if err != nil {
			return nil, err
		}
		models = append(models, checkModel{
			name: inst.Name, text: lustre.Format(prog), property: inst.Property, prog: prog,
			depth: inst.Depth, bounds: inst.Bounds, want: mc.Falsified, wantK: 0,
		})
	}
	jobs := make([]job, len(models))
	for i, m := range models {
		jobs[i] = checkJob(m)
	}
	return &sequential{shuffle(jobs, seed)}, nil
}

func checkJob(m checkModel) job {
	return job{name: m.name, text: m.text, run: func(pr probe) outcome {
		pl := newPlugins(pr, false)
		cfg := pl.cfg
		// A nil Config implies CheckModels; passing one must keep it.
		cfg.CheckModels = true
		opts := mc.Options{
			Property: m.property, MaxDepth: m.depth, InputBounds: m.bounds, Config: &cfg,
		}
		if pr.tr != nil {
			opts.Progress = func(ev mc.DepthEvent) {
				now := time.Now()
				pr.tr.record(pr.inst, "mc."+ev.Phase, fmt.Sprint(ev.Depth), now.Add(-ev.Wall), now)
				pr.tot.add(func(c *layerCounts) {
					if ev.Phase == "base" {
						c.mcBase += ev.Wall
					} else {
						c.mcInduction += ev.Wall
					}
				})
			}
		}
		start := time.Now()
		res, err := mc.Check(context.Background(), m.prog, opts)
		pr.tr.since(pr.inst, "mc", "check", start)
		pr.tot.addSolve(res.Stats, pl)
		pr.tot.add(func(c *layerCounts) { c.mcDepths += res.Depths })
		return outcome{status: string(res.Verdict), err: err, check: func(pr probe) (bool, error) {
			return checkMC(pr, m, res)
		}}
	}}
}

// checkMC compares a model-checking verdict with the model's known answer
// and replays a falsification at the expected instant. On a safe model a
// proof is as good as the expected bound; a bound reached through a
// timeout or an incomplete theory check is undecided, not wrong.
func checkMC(pr probe, m checkModel, res mc.Result) (bool, error) {
	safe := m.want == mc.BoundReached
	switch res.Verdict {
	case mc.Proved:
		if !safe {
			return false, fmt.Errorf("proved, expected a counterexample at %d", m.wantK)
		}
		return true, nil
	case mc.Falsified:
		if safe || res.K != m.wantK || res.Trace == nil || res.Trace.Step != m.wantK {
			return false, fmt.Errorf("falsified at %d, expected %s at %d", res.K, m.want, m.wantK)
		}
		start := time.Now()
		ok, err := mc.Replay(m.prog, res.Trace)
		pr.tr.since(pr.inst, "mc.replay", "", start)
		if err == nil && !ok {
			err = fmt.Errorf("counterexample does not replay at instant %d", m.wantK)
		}
		return err == nil, err
	}
	return safe && res.K == m.wantK && res.Reason == "", nil
}
