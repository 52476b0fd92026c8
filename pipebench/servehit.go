package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/trace"
)

// hitClass is one request class of the serve-hit mix. Weights are requests
// per 100 and fixed. Sorted by latency the classes run get (0-25%) < CG-16
// (25-35%) < FFT-16 (35-65%) < MG-16 (65-75%) < ring-64 by name (75-90%) <
// ring-64 inline (90-100%), so p50 falls in the middle of the FFT-16 band
// and p99 inside the inline band, never on a class boundary.
type hitClass struct {
	name   string
	weight int
	ref    patRef // the pattern a POST class asks for
	inline bool   // send the pattern as an inline noctrace document
	get    bool   // replay stored designs with GET /v1/design/{key}
}

// serveHit sends only requests the store already holds: set-up synthesizes
// every design once, then two closed-loop clients replay by-name, inline
// and by-key requests.
type serveHit struct {
	classes []hitClass
	perRnd  int
	rng     *rand.Rand
	golden  map[string]goldenEntry
	root    string
	wrap    func(http.RoundTripper) http.RoundTripper

	ls     *liveServer
	bodies map[string][]byte // request body per POST class
	stored map[string][]byte // miss body per key
	keyOf  map[string]string // key per POST class
	keys   []string          // stored keys, replayed by the get class
	links  int
	before map[string]int64

	mu      sync.Mutex
	selfNs  int64 // round trip minus the replayed stages, summed
	selfCnt int64
}

func newServeHit(sz sizes, seed int64, golden map[string]goldenEntry, root string, wrap func(http.RoundTripper) http.RoundTripper) *serveHit {
	return &serveHit{classes: sz.hit, perRnd: sz.hitPerRound, rng: rand.New(rand.NewSource(seed)),
		golden: golden, root: root, wrap: wrap}
}

// setup starts a fresh server over an empty data directory and stores every
// design through it: one miss per by-name class, whose bodies are checked
// in full and kept as the reference for every later hit.
func (w *serveHit) setup() error {
	if err := w.ls.stop(); err != nil {
		return err
	}
	ls, err := startServer(w.root, w.wrap)
	if err != nil {
		return err
	}
	w.ls = ls
	w.bodies = make(map[string][]byte)
	w.stored = make(map[string][]byte)
	w.keyOf = make(map[string]string)
	w.keys = w.keys[:0]
	w.links = 0
	for _, cl := range w.classes {
		if cl.get || cl.inline {
			continue
		}
		body, err := json.Marshal(serve.DesignRequest{Benchmark: cl.ref.bench, Procs: cl.ref.procs, Iterations: cl.ref.iters})
		if err != nil {
			return err
		}
		w.bodies[cl.name] = body
		r, err := ls.post(body)
		if err != nil {
			return err
		}
		if r.cache != "miss" {
			return fmt.Errorf("%s: set-up request was a %q, want a miss", cl.name, r.cache)
		}
		pat, err := cl.ref.generate(nil, 0, -1)
		if err != nil {
			return err
		}
		d, sha, err := checkServed(r.body, newContention(pat, model.MaxCliqueSet(pat)))
		if err != nil {
			return fmt.Errorf("%s: %w", cl.name, err)
		}
		if err := checkGolden(w.golden, cl.ref.String(), sha, d.Links); err != nil {
			return err
		}
		w.stored[r.key] = r.body
		w.keyOf[cl.name] = r.key
		w.keys = append(w.keys, r.key)
		w.links += d.Links
	}
	for _, cl := range w.classes {
		if !cl.inline {
			continue
		}
		pat, err := cl.ref.generate(nil, 0, -1)
		if err != nil {
			return err
		}
		var text strings.Builder
		if err := trace.Encode(&text, pat); err != nil {
			return err
		}
		body, err := json.Marshal(serve.DesignRequest{Trace: text.String()})
		if err != nil {
			return err
		}
		w.bodies[cl.name] = body
		w.keyOf[cl.name] = serve.Key(pat, serverSynth)
		if _, ok := w.stored[w.keyOf[cl.name]]; !ok {
			return fmt.Errorf("%s: inline trace does not key to a stored design", cl.name)
		}
	}
	sort.Strings(w.keys)
	return nil
}

// round deals a freshly shuffled mix of perRnd requests, with exact class
// counts, alternately to the two clients.
func (w *serveHit) round(n int) ([][]op, error) {
	if n == 0 {
		w.before = w.ls.counters()
	}
	var mix []op
	total := 0
	for _, cl := range w.classes {
		total += cl.weight
	}
	for _, cl := range w.classes {
		cl := cl
		for i := 0; i < cl.weight*w.perRnd/total; i++ {
			if cl.get {
				key := w.keys[(n+i)%len(w.keys)]
				mix = append(mix, op{class: cl.name, run: func(tr *tracer, id int64) (func(*tracer) error, error) {
					return w.get(tr, id, key)
				}})
				continue
			}
			mix = append(mix, op{class: cl.name, run: func(tr *tracer, id int64) (func(*tracer) error, error) {
				return w.post(tr, id, cl)
			}})
		}
	}
	w.rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	lists := make([][]op, 2)
	for i, o := range mix {
		lists[i%2] = append(lists[i%2], o)
	}
	return lists, nil
}

func (w *serveHit) get(tr *tracer, id int64, key string) (func(*tracer) error, error) {
	tr.setLabel("class=get")
	root := tr.begin(id, -1, "bench.op")
	defer tr.end(root)
	sp := tr.begin(id, root, "serve.get")
	r, err := w.ls.get(key)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return func(*tracer) error { return w.sameAsStored(key, r) }, nil
}

func (w *serveHit) post(tr *tracer, id int64, cl hitClass) (func(*tracer) error, error) {
	tr.setLabel("class=" + cl.name)
	root := tr.begin(id, -1, "bench.op")
	defer tr.end(root)
	body := w.bodies[cl.name]
	sp := tr.begin(id, root, "serve.roundtrip")
	r, err := w.ls.post(body)
	rt := tr.end(sp)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// Replay the stages the handler ran before its store lookup, on the
		// same input, and place them inside the round trip.
		_, stages, err := replayPattern(tr, id, sp, body)
		if err != nil {
			return nil, err
		}
		w.mu.Lock()
		w.selfNs += int64(rt - stages)
		w.selfCnt++
		w.mu.Unlock()
	}
	key := w.keyOf[cl.name]
	return func(*tracer) error {
		if r.cache != "hit" {
			return fmt.Errorf("X-Nocd-Cache %q, want hit", r.cache)
		}
		if r.key != key {
			return fmt.Errorf("X-Nocd-Pattern-Hash %s, want %s", r.key, key)
		}
		return w.sameAsStored(key, r)
	}, nil
}

func (w *serveHit) sameAsStored(key string, r reply) error {
	if !bytes.Equal(r.body, w.stored[key]) {
		return fmt.Errorf("body for %s differs from the stored miss body (%d vs %d bytes)", key, len(r.body), len(w.stored[key]))
	}
	return nil
}

// replayPattern re-runs, on one request body, the public stage functions
// the nocd handler calls before it consults the store — request JSON
// decode, trace decode or workload generation, and Key — recording each as
// a child of the round-trip span rt. It returns the pattern and the
// stages' summed duration.
func replayPattern(tr *tracer, id int64, rt int, body []byte) (*model.Pattern, time.Duration, error) {
	var total time.Duration
	stage := func(name string, f func() error) error {
		t := time.Now()
		err := f()
		d := time.Since(t)
		tr.record(id, rt, name, total, d)
		total += d
		return err
	}
	var req serve.DesignRequest
	err := stage("serve.request_json", func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(&req)
	})
	if err != nil {
		return nil, 0, err
	}
	var pat *model.Pattern
	if req.Trace != "" {
		err = stage("trace.decode", func() (err error) {
			pat, err = trace.Decode(strings.NewReader(req.Trace))
			return err
		})
	} else {
		ref := patRef{bench: req.Benchmark, procs: req.Procs, iters: req.Iterations}
		name := "collective.generate"
		if ref.isNAS() {
			name = "nas.generate"
		}
		err = stage(name, func() (err error) {
			pat, err = ref.generate(nil, 0, -1)
			return err
		})
	}
	if err != nil {
		return nil, 0, err
	}
	opt := serverSynth
	if req.Seed != 0 {
		opt.Seed = req.Seed
	}
	stage("serve.key", func() error { serve.Key(pat, opt); return nil })
	return pat, total, nil
}

func (w *serveHit) endRound() error { return nil }

func (w *serveHit) designLinks() float64 { return float64(w.links) }

func (w *serveHit) layerMetrics(m map[string]float64, _ *runResult) {
	if w.selfCnt > 0 {
		m["serve.handler_self_ms"] = float64(w.selfNs) / 1e6 / float64(w.selfCnt)
	}
	serveCounterMetrics(m, w.before, w.ls.counters())
}

// serveCounterMetrics derives the store and warm-start ratios from the
// server counters accumulated between two snapshots.
func serveCounterMetrics(m map[string]float64, before, after map[string]int64) {
	d := func(k string) float64 { return float64(after[k] - before[k]) }
	if n := d("serve.cache_hit") + d("serve.cache_miss"); n > 0 {
		m["serve.hit_ratio"] = d("serve.cache_hit") / n
	}
	if n := d("serve.warm_seeded") + d("serve.warm_cold"); n > 0 {
		m["serve.warm_seeded_frac"] = d("serve.warm_seeded") / n
	}
	m["serve.store_disk_write"] = d("serve.store_disk_write")
}

func (w *serveHit) summary() []string {
	return []string{fmt.Sprintf("%d designs stored (%d links), %d requests per round over 2 clients", len(w.keys), w.links, w.perRnd)}
}

func (w *serveHit) close() {
	if err := w.ls.stop(); err != nil {
		warnf("stopping server: %v", err)
	}
}
