package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/flitsim"
	"repro/internal/floorplan"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/trace"
)

// offlineFlow runs the paper's design flow on a fixed corpus, one corpus
// pass per operation and per round. Each pattern goes through noctrace
// encode and decode
// (netgen reads trace text), synthesis at server defaults, SaveDesign,
// floorplan, and flit-level simulation on the generated network (with the
// plan's link delays), the mesh, and the crossbar.
type offlineFlow struct {
	corpus []patRef
	rng    *rand.Rand
	golden map[string]goldenEntry

	pats []*model.Pattern

	mu      sync.Mutex
	results map[string]*flowResult // last pass, by pattern
	prev    map[string]*flowResult // the first pass, which later ones must repeat
	synthNs int64                  // traced synthesis time, summed
	moves   int64                  // moves evaluated by the traced syntheses
	simNs   int64                  // traced simulation time, summed
	hops    int64                  // flit hops over the traced simulations
}

// flowResult is what one pattern's flow produced, kept for the checks.
type flowResult struct {
	pat   *model.Pattern
	res   *synth.Result
	sha   string
	area  float64
	exec  float64
	kills int
	gen   flitsim.Result
	mesh  flitsim.Result
	xbar  flitsim.Result
	stats synth.Stats
}

func newOfflineFlow(sz sizes, seed int64, golden map[string]goldenEntry) *offlineFlow {
	return &offlineFlow{corpus: sz.offline, rng: rand.New(rand.NewSource(seed)), golden: golden,
		results: make(map[string]*flowResult)}
}

func (w *offlineFlow) setup() error {
	w.pats = w.pats[:0]
	for _, r := range w.corpus {
		p, err := r.generate(nil, 0, -1)
		if err != nil {
			return err
		}
		w.pats = append(w.pats, p)
	}
	return nil
}

// round is one corpus pass, a single operation, in an order drawn from the
// seed.
func (w *offlineFlow) round(int) ([][]op, error) {
	order := w.rng.Perm(len(w.corpus))
	return [][]op{{{class: "pass", run: func(tr *tracer, id int64) (func(*tracer) error, error) {
		return w.pass(tr, id, order)
	}}}}, nil
}

func (w *offlineFlow) pass(tr *tracer, id int64, order []int) (func(*tracer) error, error) {
	root := tr.begin(id, -1, "bench.op")
	defer tr.end(root)
	var checks []func(*tracer) error
	for _, i := range order {
		name := w.corpus[i].String()
		tr.setLabel(name)
		fr, err := w.flow(tr, id, root, w.pats[i])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		w.mu.Lock()
		w.results[name] = fr
		w.mu.Unlock()
		orig := w.pats[i]
		checks = append(checks, func(tr *tracer) error { return w.check(tr, id, name, orig, fr) })
	}
	tr.setLabel("")
	return func(tr *tracer) error {
		for _, check := range checks {
			if err := check(tr); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// flow runs one pattern through the pipeline under root.
func (w *offlineFlow) flow(tr *tracer, id int64, root int, pat *model.Pattern) (*flowResult, error) {
	var text bytes.Buffer
	sp := tr.begin(id, root, "trace.encode")
	err := trace.Encode(&text, pat)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(id, root, "trace.decode")
	p, err := trace.Decode(&text)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(id, root, "synth.synthesize")
	res, err := synth.Synthesize(p, serverSynth)
	synthD := tr.end(sp)
	if err != nil {
		return nil, err
	}
	var design bytes.Buffer
	sp = tr.begin(id, root, "synth.save_design")
	err = synth.SaveDesign(&design, res.Net, res.Table)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(id, root, "floorplan.place")
	plan, err := floorplan.Place(res.Net, floorplan.Options{Seed: serverSynth.Seed})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var simD time.Duration
	sim := func(name string, run func() (flitsim.Result, error)) (flitsim.Result, error) {
		sp := tr.begin(id, root, name)
		r, err := run()
		simD += tr.end(sp)
		return r, err
	}
	gen, err := sim("flitsim.run.generated", func() (flitsim.Result, error) {
		return flitsim.RunGenerated(p, res.Net, res.Table, flitsim.Config{LinkDelay: plan.LinkDelay})
	})
	if err != nil {
		return nil, err
	}
	mesh, err := sim("flitsim.run.mesh", func() (flitsim.Result, error) { return flitsim.RunMesh(p, flitsim.Config{}) })
	if err != nil {
		return nil, err
	}
	xbar, err := sim("flitsim.run.crossbar", func() (flitsim.Result, error) { return flitsim.RunCrossbar(p, flitsim.Config{}) })
	if err != nil {
		return nil, err
	}

	meshSw, meshLink := floorplan.MeshBaseline(p.Procs)
	fr := &flowResult{
		pat: p, res: res, sha: digest(design.Bytes()),
		area:  float64(plan.SwitchArea+plan.TotalArea()) / float64(meshSw+meshLink),
		exec:  float64(gen.ExecCycles) / float64(xbar.ExecCycles),
		kills: gen.Kills, gen: gen, mesh: mesh, xbar: xbar, stats: res.Stats,
	}
	if tr != nil {
		w.mu.Lock()
		w.synthNs += int64(synthD)
		w.moves += int64(res.Stats.MovesEvaluated)
		w.simNs += int64(simD)
		w.hops += gen.FlitHops + mesh.FlitHops + xbar.FlitHops
		w.mu.Unlock()
	}
	return fr, nil
}

// check verifies one flow's outputs: the trace round trip, the synthesizer's
// verdicts, Theorem 1 re-derived from the raw routes, the golden design
// digest and Figure 7/8 ratios, repeatability across passes, and complete
// delivery on every simulated topology.
func (w *offlineFlow) check(tr *tracer, id int64, name string, orig *model.Pattern, fr *flowResult) error {
	if fr.pat.Procs != orig.Procs || len(fr.pat.Messages) != len(orig.Messages) {
		return fmt.Errorf("%s: trace round trip changed the pattern", name)
	}
	if !fr.res.ConstraintsMet || !fr.res.ContentionFree {
		return fmt.Errorf("%s: constraints_met=%t contention_free=%t", name, fr.res.ConstraintsMet, fr.res.ContentionFree)
	}
	tr.setLabel(name)
	defer tr.setLabel("")
	root := tr.begin(id, -1, "bench.check")
	sp := tr.begin(id, root, "model.cliques")
	cliques := model.MaxCliques(model.ContentionPeriods(fr.pat))
	tr.end(sp)
	err := newContention(fr.pat, cliques).theorem1(fr.res.Table)
	tr.end(root)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := checkGolden(w.golden, name, fr.sha, fr.res.Net.TotalLinks()); err != nil {
		return err
	}
	g := w.golden[name]
	if err := checkRatio(name, "area_vs_mesh", fr.area, g.AreaVsMesh); err != nil {
		return err
	}
	if err := checkRatio(name, "exec_vs_crossbar", fr.exec, g.ExecVsCrossbar); err != nil {
		return err
	}
	for topo, r := range map[string]flitsim.Result{"generated": fr.gen, "mesh": fr.mesh, "crossbar": fr.xbar} {
		if r.Messages != len(fr.pat.Messages) {
			return fmt.Errorf("%s: %s delivered %d of %d messages", name, topo, r.Messages, len(fr.pat.Messages))
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.prev == nil {
		w.prev = make(map[string]*flowResult)
	}
	first, ok := w.prev[name]
	if !ok {
		w.prev[name] = fr
		return nil
	}
	if first.sha != fr.sha || first.area != fr.area || first.exec != fr.exec || first.gen.ExecCycles != fr.gen.ExecCycles {
		return fmt.Errorf("%s: pass output differs from the first pass", name)
	}
	return nil
}

func (w *offlineFlow) endRound() error { return nil }

func (w *offlineFlow) designLinks() float64 {
	n := 0
	for _, fr := range w.results {
		n += fr.res.Net.TotalLinks()
	}
	return float64(n)
}

func (w *offlineFlow) layerMetrics(m map[string]float64, _ *runResult) {
	var st synth.Stats
	kills := 0
	logArea, logExec := 0.0, 0.0
	for _, r := range w.corpus {
		name := r.String()
		fr := w.results[name]
		if fr == nil {
			continue
		}
		st.MovesEvaluated += fr.stats.MovesEvaluated
		st.MovesCommitted += fr.stats.MovesCommitted
		st.Reroutes += fr.stats.Reroutes
		st.RestartsRun += fr.stats.RestartsRun
		st.SeededRestarts += fr.stats.SeededRestarts
		kills += fr.kills
		logArea += math.Log(fr.area)
		logExec += math.Log(fr.exec)
		m["synth.moves_evaluated."+name] = float64(fr.stats.MovesEvaluated)
		m["flitsim.kills."+name] = float64(fr.kills)
		m["floorplan.area_vs_mesh."+name] = fr.area
		m["flitsim.exec_vs_crossbar."+name] = fr.exec
	}
	synthStatMetrics(m, st, w.synthNs, w.moves)
	m["flitsim.kills"] = float64(kills)
	m["floorplan.area_vs_mesh"] = math.Exp(logArea / float64(len(w.corpus)))
	m["flitsim.exec_vs_crossbar"] = math.Exp(logExec / float64(len(w.corpus)))
	if w.simNs > 0 {
		m["flitsim.flit_hops_per_s"] = float64(w.hops) / (float64(w.simNs) / 1e9)
	}
}

// synthStatMetrics fills the synthesis counters of one round (one pass or
// one sweep round) and the traced synthesis time per evaluated move.
func synthStatMetrics(m map[string]float64, st synth.Stats, synthNs, moves int64) {
	m["synth.moves_evaluated"] = float64(st.MovesEvaluated)
	m["synth.reroutes"] = float64(st.Reroutes)
	m["synth.restarts_run"] = float64(st.RestartsRun)
	m["synth.seeded_restarts"] = float64(st.SeededRestarts)
	if st.MovesEvaluated > 0 {
		m["synth.commit_ratio"] = float64(st.MovesCommitted) / float64(st.MovesEvaluated)
	}
	if synthNs > 0 && moves > 0 {
		m["synth.us_per_move"] = float64(synthNs) / 1e3 / float64(moves)
	}
}

func (w *offlineFlow) summary() []string {
	var out []string
	for _, r := range w.corpus {
		fr := w.results[r.String()]
		if fr == nil {
			continue
		}
		out = append(out, fmt.Sprintf("%s: %d links, area/mesh %.4f, exec/crossbar %.4f, kills %d, design sha256 %s",
			r, fr.res.Net.TotalLinks(), fr.area, fr.exec, fr.kills, fr.sha[:16]))
	}
	return out
}

func (w *offlineFlow) close() {}
