package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
)

// family is one structure and the requests that reuse it. The first
// request (base, server-default seed and iterations) is a cold miss; its
// variants and fingerprint twins are exact-key misses that the warm index
// seeds from a design of the same family. Families are pairwise farther
// apart than the warm threshold, so which design seeds a request never
// depends on how the two clients interleave.
type family struct {
	base  patRef
	twins []patRef // other workloads at fingerprint distance 0
}

// sweepReq is one request of a round with its expected outcome.
type sweepReq struct {
	name   string
	ref    patRef
	seed   int64 // synthesis seed override; 0 keeps the server default
	warm   string
	golden string // golden entry the design must match, if any
	body   []byte
	ct     *contention
}

// serveSweep runs rounds of exact-key misses, each round on a fresh server
// over an empty data directory, so every round writes the store afresh.
type serveSweep struct {
	families [2][]family
	variants int
	seed     int64
	golden   map[string]goldenEntry
	root     string
	wrap     func(http.RoundTripper) http.RoundTripper

	lists [2][]*sweepReq
	ls    *liveServer

	mu         sync.Mutex
	links      int
	prev       map[string]string // design digest per request, from the first round
	stats      map[string]synth.Stats
	roundStats synth.Stats // synthesis counters of the last round
	synthNs    int64       // traced synth.run time, summed
	moves      int64       // moves evaluated in traced rounds
	missNs     int64       // traced round trips minus synth.run, summed
	missCnt    int64
	ctr        map[string]float64 // counter-derived metrics of the last round
}

func newServeSweep(sz sizes, seed int64, golden map[string]goldenEntry, root string, wrap func(http.RoundTripper) http.RoundTripper) *serveSweep {
	return &serveSweep{families: sz.sweep, variants: sz.sweepVariants, seed: seed, golden: golden, root: root, wrap: wrap}
}

// setup derives the request lists from the seed: per family the base, then
// in a seeded order its variants — synthesis seeds drawn from the seed, and
// one iteration count past the generator default — and its twins. The
// iteration count is fixed rather than drawn, because it sets the pattern
// size and so the work of every later stage. Each request's pattern and
// contention relation are built here for the checks.
func (w *serveSweep) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	for c, fams := range w.families {
		w.lists[c] = w.lists[c][:0]
		for _, fi := range rng.Perm(len(fams)) {
			f := fams[fi]
			reqs := []*sweepReq{{ref: f.base, warm: "cold", golden: f.base.String()}}
			var rest []*sweepReq
			seeds := map[int64]bool{serverSynth.Seed: true}
			for len(seeds) <= w.variants {
				sd := 1 + rng.Int63n(1<<20)
				if !seeds[sd] {
					seeds[sd] = true
					rest = append(rest, &sweepReq{ref: f.base, seed: sd, warm: "seeded"})
				}
			}
			iters := f.base
			iters.iters = defaultIters(f.base) + 1
			rest = append(rest, &sweepReq{ref: iters, warm: "seeded"})
			for _, t := range f.twins {
				rest = append(rest, &sweepReq{ref: t, warm: "seeded"})
			}
			rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
			for _, r := range append(reqs, rest...) {
				if err := r.prepare(); err != nil {
					return err
				}
				w.lists[c] = append(w.lists[c], r)
			}
		}
	}
	return nil
}

// defaultIters is the generator's default iteration (repeat) count: a
// variant asking for it would key like the base and be served as a hit.
func defaultIters(r patRef) int {
	switch r.bench {
	case "CG", "SP":
		return 4
	case "FFT", "MG", "BT":
		return 3
	}
	return 2
}

func (r *sweepReq) prepare() error {
	r.name = r.ref.String()
	if r.seed != 0 {
		r.name += fmt.Sprintf("-s%d", r.seed)
	}
	body, err := json.Marshal(serve.DesignRequest{Benchmark: r.ref.bench, Procs: r.ref.procs, Iterations: r.ref.iters, Seed: r.seed})
	if err != nil {
		return err
	}
	r.body = body
	pat, err := r.ref.generate(nil, 0, -1)
	if err != nil {
		return err
	}
	r.ct = newContention(pat, model.MaxCliqueSet(pat))
	return nil
}

// round starts a fresh server; each client sends its list in order.
func (w *serveSweep) round(int) ([][]op, error) {
	ls, err := startServer(w.root, w.wrap)
	if err != nil {
		return nil, err
	}
	w.ls = ls
	w.links = 0
	w.roundStats = synth.Stats{}
	lists := make([][]op, len(w.lists))
	for c, reqs := range w.lists {
		for _, r := range reqs {
			r := r
			lists[c] = append(lists[c], op{class: r.warm, run: func(tr *tracer, id int64) (func(*tracer) error, error) {
				return w.send(tr, id, r)
			}})
		}
	}
	return lists, nil
}

func (w *serveSweep) send(tr *tracer, id int64, r *sweepReq) (func(*tracer) error, error) {
	tr.setLabel("req=" + r.name)
	root := tr.begin(id, -1, "bench.op")
	defer tr.end(root)
	sp := tr.begin(id, root, "serve.roundtrip")
	rep, err := w.ls.post(r.body)
	rt := tr.end(sp)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// Replay the stages before synthesis and the fingerprint lookup,
		// then place the server's own synth.run (from the response report)
		// after them, with the clique extraction it starts with inside it.
		pat, front, err := replayPattern(tr, id, sp, r.body)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		trace.FingerprintPattern(pat)
		fp := time.Since(t)
		tr.record(id, sp, "trace.fingerprint", front, fp)
		var d servedDesign
		if err := json.Unmarshal(rep.body, &d); err != nil {
			return nil, fmt.Errorf("decoding response: %w", err)
		}
		runNs, err := d.synthRunNs()
		if err != nil {
			return nil, err
		}
		run := tr.record(id, sp, "synth.run."+r.warm, front+fp, time.Duration(runNs))
		t = time.Now()
		model.MaxCliques(model.ContentionPeriods(pat))
		tr.record(id, run, "model.cliques", 0, time.Since(t))
		w.mu.Lock()
		w.synthNs += runNs
		w.moves += int64(d.Stats.MovesEvaluated)
		w.missNs += int64(rt) - runNs
		w.missCnt++
		w.mu.Unlock()
	}
	return func(*tracer) error { return w.check(r, rep) }, nil
}

// check verifies one miss: the cache and warm-start outcome the request
// list predicts, the design verdicts and Theorem 1, the golden digest for
// cold bases, and that the design and synthesis counters repeat every round.
func (w *serveSweep) check(r *sweepReq, rep reply) error {
	if rep.cache != "miss" {
		return fmt.Errorf("%s: X-Nocd-Cache %q, want miss", r.name, rep.cache)
	}
	if rep.warm != r.warm {
		return fmt.Errorf("%s: X-Nocd-Warm %q, want %q", r.name, rep.warm, r.warm)
	}
	d, sha, err := checkServed(rep.body, r.ct)
	if err != nil {
		return fmt.Errorf("%s: %w", r.name, err)
	}
	if r.golden != "" {
		if err := checkGolden(w.golden, r.golden, sha, d.Links); err != nil {
			return err
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.links += d.Links
	st := d.Stats
	w.roundStats.MovesEvaluated += st.MovesEvaluated
	w.roundStats.MovesCommitted += st.MovesCommitted
	w.roundStats.Reroutes += st.Reroutes
	w.roundStats.RestartsRun += st.RestartsRun
	w.roundStats.SeededRestarts += st.SeededRestarts
	if w.prev == nil {
		w.prev = make(map[string]string)
		w.stats = make(map[string]synth.Stats)
	}
	if first, ok := w.prev[r.name]; ok {
		if first != sha || w.stats[r.name] != st {
			return fmt.Errorf("%s: design or synthesis counters differ from the first round", r.name)
		}
		return nil
	}
	w.prev[r.name] = sha
	w.stats[r.name] = st
	return nil
}

// endRound reads the round's server counters and stops its server.
func (w *serveSweep) endRound() error {
	w.ctr = make(map[string]float64)
	serveCounterMetrics(w.ctr, nil, w.ls.counters())
	err := w.ls.stop()
	w.ls = nil
	return err
}

func (w *serveSweep) designLinks() float64 { return float64(w.links) }

func (w *serveSweep) layerMetrics(m map[string]float64, res *runResult) {
	synthStatMetrics(m, w.roundStats, w.synthNs, w.moves)
	m["serve.cold_miss_p50_ms"] = ms(median(res.byClass["cold"]))
	m["serve.seeded_miss_p50_ms"] = ms(median(res.byClass["seeded"]))
	if w.missCnt > 0 {
		m["serve.miss_overhead_ms"] = float64(w.missNs) / 1e6 / float64(w.missCnt)
	}
	for k, v := range w.ctr {
		m[k] = v
	}
}

func (w *serveSweep) summary() []string {
	var out []string
	for c, reqs := range w.lists {
		cold := 0
		for _, r := range reqs {
			if r.warm == "cold" {
				cold++
			}
		}
		out = append(out, fmt.Sprintf("client %d: %d requests (%d cold, %d seeded)", c, len(reqs), cold, len(reqs)-cold))
	}
	return out
}

func (w *serveSweep) close() {
	if err := w.ls.stop(); err != nil {
		warnf("stopping server: %v", err)
	}
}
