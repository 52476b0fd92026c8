package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload on the tiny corpus and parses the JSON line
// that must end its output.
func runTiny(t *testing.T, workload string, traced bool, wrap func(http.RoundTripper) http.RoundTripper) result {
	t.Helper()
	var out bytes.Buffer
	err := bench(&out, benchArgs{workload: workload, seed: 7, seconds: time.Second, traced: traced,
		out: t.TempDir(), sizes: tinySizes(), wrap: wrap})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	return r
}

// TestEveryMetricEmitted runs each workload, listed in BENCHMARK.json or
// not, untraced and traced and checks that exactly the metrics
// BENCHMARK.json names come out, each with its unit, and that every output
// check passed.
func TestEveryMetricEmitted(t *testing.T) {
	var spec benchmarkJSON
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	names := append([]string(nil), unlistedWorkloads...)
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range names {
		for _, traced := range []bool{false, true} {
			r := runTiny(t, w, traced, nil)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w, traced, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w, traced, len(r.Metrics), len(want[traced]))
			}
			for name, unit := range want[traced] {
				got, ok := r.Metrics[name]
				if !ok || got.Value == nil {
					t.Errorf("%s traced=%t: metric %s missing", w, traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s traced=%t: %s unit %q, want %q", w, traced, name, got.Unit, unit)
				}
			}
			if !traced {
				for name, got := range r.Metrics {
					if got.Value != nil && *got.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w, name)
					}
				}
			}
		}
	}
}

// corruptFirstHit flips one byte in the body of the first cache hit.
type corruptFirstHit struct {
	next http.RoundTripper
	once sync.Once
}

func (c *corruptFirstHit) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(req)
	if err != nil || resp.Header.Get("X-Nocd-Cache") != "hit" {
		return resp, err
	}
	c.once.Do(func() {
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && len(b) > 0 {
			b[len(b)/2] ^= 0x20
		}
		resp.Body = io.NopCloser(bytes.NewReader(b))
	})
	return resp, nil
}

// TestCorruptedBodyCounted checks that one damaged hit body is caught by the
// byte-identity check and counted as exactly one failed operation.
func TestCorruptedBodyCounted(t *testing.T) {
	r := runTiny(t, "serve-hit", false, func(rt http.RoundTripper) http.RoundTripper {
		return &corruptFirstHit{next: rt}
	})
	if r.Correct || r.Failed != 1 {
		t.Fatalf("correct=%t failed=%d, want the corrupted body counted as one failure", r.Correct, r.Failed)
	}
	want := float64(r.Attempted-1) / float64(r.Attempted)
	if got := *r.Metrics["ok_frac"].Value; got != want {
		t.Errorf("ok_frac %v, want %v", got, want)
	}
}

// TestBenchmarkJSONCurrent pins the committed BENCHMARK.json to the tables
// in spec.go; regenerate it with --write-spec.
func TestBenchmarkJSONCurrent(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from spec.go; run: bash pipebench/run.sh --write-spec BENCHMARK.json")
	}
}

func TestQuantileMatchesInclusiveMethod(t *testing.T) {
	ds := []time.Duration{40, 10, 30, 20}
	if got := quantile(ds, 0.5); got != 25 {
		t.Errorf("median %v, want 25", got)
	}
	if got := quantile(ds, 0.99); got != 39 { // 30 + 0.97*(40-30), truncated
		t.Errorf("p99 %v, want 39", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a.x", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b.y", Start: 30, End: 50},
	}
	self := selfTimes([][]span{spans})
	if self["bench.op"] != 60 || self["a.x"] != 30 || self["b.y"] != 20 {
		t.Errorf("self times %v", self)
	}
}
