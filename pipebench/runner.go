package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// op is one unit of measured work: one offline corpus pass or one HTTP
// request. run does the work and returns a check that the runner executes
// after the round, outside the timing.
type op struct {
	class string
	run   func(tr *tracer, id int64) (check func(tr *tracer) error, err error)
}

// workload is one traffic mix.
type workload interface {
	// setup builds the inputs and any server state the timed phase needs.
	// The runner calls it several times and times each call.
	setup() error
	// round returns the per-client operation lists of one round; it may
	// start a fresh server (serve-sweep).
	round(n int) ([][]op, error)
	// endRound releases per-round state.
	endRound() error
	// designLinks is the design_links metric of the last round.
	designLinks() float64
	// layerMetrics adds the workload's own per-layer values (counters,
	// ratios, replay-derived times) to m.
	layerMetrics(m map[string]float64, res *runResult)
	// summary describes the traffic actually sent, for the human report.
	summary() []string
	close()
}

// opRecord is the measured outcome of one operation.
type opRecord struct {
	class string
	lat   time.Duration
	err   error
	check func(tr *tracer) error
}

type runConfig struct {
	seconds  time.Duration
	traced   bool
	setups   int
	minRound int
}

type runResult struct {
	setups      []time.Duration
	rounds      []time.Duration
	tracedRnd   []bool
	lat         []time.Duration
	byClass     map[string][]time.Duration
	attempted   int
	failed      int
	failures    []string
	allocBytes  uint64 // allocated during untraced rounds
	untracedOps int
	busy        time.Duration
	links       float64
	spans       [][]span
	layer       map[string]float64
}

// runWorkload times set-up, then runs rounds for the time budget. A round
// is a barrier: every client works through its list, and the next round
// starts when all have finished. In a traced run even rounds are traced and
// odd rounds are not, so the difference between the two is the tracing
// overhead.
func runWorkload(w workload, cfg runConfig) (*runResult, error) {
	res := &runResult{byClass: make(map[string][]time.Duration)}
	for i := 0; i < cfg.setups; i++ {
		t := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, time.Since(t))
	}
	var nextOp int64
	var traced []*tracer
	// The rounds that fill the first fifth of the budget size the run: as
	// many rounds as fit the budget at their mean pace, rounded to nearest,
	// so a run of long rounds (an offline pass takes several seconds) does
	// not flip between counts on noise, and one fast first round does not
	// stretch a run of short ones.
	t0 := time.Now()
	total, sized := max(cfg.minRound, 1), false
	for n := 0; !sized || n < total; n++ {
		lists, err := w.round(n)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", n, err)
		}
		tracedRound := cfg.traced && n%2 == 0
		// One tracer per closed-loop client (each sends its next operation
		// only after the previous one completed); nil in untraced rounds.
		tracers := make([]*tracer, len(lists))
		if tracedRound {
			for i := range tracers {
				tracers[i] = newTracer(t0)
			}
			traced = append(traced, tracers...)
		}
		ids := make([][]int64, len(lists))
		for i, l := range lists {
			for range l {
				ids[i] = append(ids[i], nextOp)
				nextOp++
			}
		}
		recs := make([][]opRecord, len(lists))
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		allocBefore := mem.TotalAlloc
		start := time.Now()
		var wg sync.WaitGroup
		for i := range lists {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j, o := range lists[i] {
					t := time.Now()
					check, err := o.run(tracers[i], ids[i][j])
					recs[i] = append(recs[i], opRecord{class: o.class, lat: time.Since(t), err: err, check: check})
				}
			}(i)
		}
		wg.Wait()
		wall := time.Since(start)
		runtime.ReadMemStats(&mem)
		res.rounds = append(res.rounds, wall)
		res.tracedRnd = append(res.tracedRnd, tracedRound)
		if !tracedRound {
			res.allocBytes += mem.TotalAlloc - allocBefore
			res.busy += wall
			for _, l := range lists {
				res.untracedOps += len(l)
			}
		}
		for i, rs := range recs {
			for _, r := range rs {
				if r.err == nil && r.check != nil {
					r.err = r.check(tracers[i])
				}
				res.attempted++
				if r.err != nil {
					res.failed++
					if len(res.failures) < 10 {
						res.failures = append(res.failures, fmt.Sprintf("%s: %v", r.class, r.err))
					}
					continue
				}
				if !tracedRound {
					res.lat = append(res.lat, r.lat)
					res.byClass[r.class] = append(res.byClass[r.class], r.lat)
				}
			}
		}
		res.links = w.designLinks()
		if err := w.endRound(); err != nil {
			return nil, fmt.Errorf("round %d: %w", n, err)
		}
		if elapsed := time.Since(t0); !sized && elapsed >= cfg.seconds/5 {
			pace := float64(elapsed) / float64(n+1)
			total = max(total, n+1, int(math.Round(float64(cfg.seconds)/pace)))
			sized = true
		}
	}
	for _, tr := range traced {
		res.spans = append(res.spans, tr.spans)
	}
	if cfg.traced {
		res.layer = layerMetrics(res)
		w.layerMetrics(res.layer, res)
	}
	return res, nil
}

// endToEndMetrics derives the untraced run's metrics. Latencies and rates
// count the successful operations of untraced rounds.
func endToEndMetrics(res *runResult) map[string]float64 {
	m := map[string]float64{
		"setup_s":      median(res.setups).Seconds(),
		"ok_frac":      float64(res.attempted-res.failed) / float64(res.attempted),
		"design_links": res.links,
		"round_s":      median(untracedRounds(res)).Seconds(),
		"p50_ms":       ms(quantile(res.lat, 0.50)),
		"p99_ms":       ms(quantile(res.lat, 0.99)),
	}
	if res.untracedOps > 0 {
		m["alloc_mb_per_op"] = float64(res.allocBytes) / 1e6 / float64(res.untracedOps)
		m["ops_per_s"] = float64(len(res.lat)) / res.busy.Seconds()
	}
	return m
}

func untracedRounds(res *runResult) []time.Duration {
	var out []time.Duration
	for i, d := range res.rounds {
		if !res.tracedRnd[i] {
			out = append(out, d)
		}
	}
	return out
}

// layerMetrics turns the traced rounds' spans into mean milliseconds per
// call of each stage (overall and per offline pattern), per-layer self time
// per traced operation, and the tracing overhead.
func layerMetrics(res *runResult) map[string]float64 {
	m := make(map[string]float64)
	for _, s := range perLayer() {
		m[s.Name] = 0
	}
	sum := make(map[string]time.Duration)
	cnt := make(map[string]int)
	roots := 0
	for _, spans := range res.spans {
		for _, s := range spans {
			name := stageMetric(s.Name)
			sum[name] += s.dur()
			cnt[name]++
			if s.Label != "" {
				sum[name+"."+s.Label] += s.dur()
				cnt[name+"."+s.Label]++
			}
			if s.Parent < 0 && s.Name == "bench.op" {
				roots++
			}
		}
	}
	for name, d := range sum {
		if _, ok := m[name]; ok {
			m[name] = ms(d) / float64(cnt[name])
		}
	}
	for name, d := range selfTimes(res.spans) {
		if key := layerOf(name) + ".self_ms"; roots > 0 {
			if _, ok := m[key]; ok {
				m[key] += ms(d) / float64(roots)
			}
		}
	}
	var tr, un []time.Duration
	for i, d := range res.rounds {
		if res.tracedRnd[i] {
			tr = append(tr, d)
		} else {
			un = append(un, d)
		}
	}
	if len(tr) > 0 && len(un) > 0 {
		m["bench.trace_overhead_frac"] = median(tr).Seconds()/median(un).Seconds() - 1
	}
	return m
}

// stageMetric maps a span name to its metric name: "trace.decode" →
// "trace.decode_ms", "flitsim.run.mesh" → "flitsim.run_ms.mesh".
func stageMetric(name string) string {
	parts := strings.SplitN(name, ".", 3)
	if len(parts) < 2 {
		return name + "_ms"
	}
	out := parts[0] + "." + parts[1] + "_ms"
	if len(parts) == 3 {
		out += "." + parts[2]
	}
	return out
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// quantile interpolates linearly between order statistics (the inclusive
// method of Python's statistics.quantiles).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func warnf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
