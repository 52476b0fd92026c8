// Command pipebench is the repository's end-to-end benchmark. It runs one
// of its workloads against the public functions of the offline design
// flow (nas/collective, trace, model, synth, floorplan, flitsim) and of the
// nocd server (serve.New behind an in-process loopback listener), checks
// every output, and prints every metric by name and unit, ending with one
// JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash pipebench/run.sh --workload offline-flow|serve-hit|serve-sweep \
//	    --seed N --seconds S --trace 0|1
//	bash pipebench/run.sh --write-spec BENCHMARK.json
//	bash pipebench/run.sh --write-golden pipebench/golden.json
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from spans the benchmark records around each call into
// a layer, and writes the spans to the --out directory. See BENCHMARK.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload: offline-flow, serve-hit or serve-sweep")
		seed     = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		secs     = fs.Int("seconds", runSeconds, "seconds to measure")
		traced   = fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
		out      = fs.String("out", ".bench_build", "directory for span files and server data")
		spec     = fs.String("write-spec", "", "write BENCHMARK.json to this path and exit")
		goldenTo = fs.String("write-golden", "", "write golden design digests to this path and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *spec != "":
		err = writeSpec(*spec)
	case *goldenTo != "":
		err = writeGolden(*goldenTo)
	default:
		err = bench(stdout, benchArgs{workload: *name, seed: *seed, seconds: time.Duration(*secs) * time.Second,
			traced: *traced == 1, out: *out, sizes: fullSizes()})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		return 1
	}
	return 0
}

// sizes is the corpus of every workload. fullSizes is the benchmark;
// the self-test runs tinySizes.
type sizes struct {
	offline       []patRef
	hit           []hitClass
	hitPerRound   int
	sweep         [2][]family
	sweepVariants int
	// setups is how many times each workload's set-up runs; setup_s is
	// the median. Cheap set-ups repeat more, so their median is steady.
	setups map[string]int
}

func fullSizes() sizes {
	ring64 := patRef{bench: "ring-allreduce", procs: 64}
	return sizes{
		// ring-allreduce-64 is left out of the offline corpus: its
		// placement alone takes ~12 s, which would make a pass longer than
		// a run. tree-broadcast-64 keeps a 64-processor pattern in it.
		offline: []patRef{{bench: "CG", procs: 16}, {bench: "FFT", procs: 16}, {bench: "MG", procs: 16},
			{bench: "tree-broadcast", procs: 64}},
		hit: []hitClass{
			{name: "get", weight: 25, get: true},
			{name: "CG-16", weight: 10, ref: patRef{bench: "CG", procs: 16}},
			{name: "FFT-16", weight: 30, ref: patRef{bench: "FFT", procs: 16}},
			{name: "MG-16", weight: 10, ref: patRef{bench: "MG", procs: 16}},
			{name: "ring-allreduce-64", weight: 15, ref: ring64},
			{name: "ring-allreduce-64-inline", weight: 10, ref: ring64, inline: true},
		},
		hitPerRound: 100,
		sweep: [2][]family{
			{{base: patRef{bench: "tree-broadcast", procs: 128}}},
			{
				{base: patRef{bench: "CG", procs: 16}},
				{base: patRef{bench: "FFT", procs: 16}},
				{base: patRef{bench: "MG", procs: 16}},
				{base: patRef{bench: "BT", procs: 16}, twins: []patRef{{bench: "SP", procs: 16}}},
				{base: ring64, twins: []patRef{{bench: "reduce-scatter", procs: 64}, {bench: "all-gather", procs: 64}}},
				{base: patRef{bench: "tree-broadcast", procs: 64}},
			},
		},
		sweepVariants: 4,
		setups:        map[string]int{"offline-flow": 500, "serve-hit": 3, "serve-sweep": 5},
	}
}

// tinySizes keeps every class and check of fullSizes on patterns small
// enough for the self-test.
func tinySizes() sizes {
	ring8 := patRef{bench: "ring-allreduce", procs: 8}
	return sizes{
		offline: []patRef{{bench: "CG", procs: 16}, {bench: "tree-broadcast", procs: 8}},
		hit: []hitClass{
			{name: "get", weight: 30, get: true},
			{name: "CG-16", weight: 45, ref: patRef{bench: "CG", procs: 16}},
			{name: "ring-allreduce-8", weight: 15, ref: ring8},
			{name: "ring-allreduce-8-inline", weight: 10, ref: ring8, inline: true},
		},
		hitPerRound: 20,
		sweep: [2][]family{
			{{base: patRef{bench: "tree-broadcast", procs: 16}}},
			{
				{base: patRef{bench: "CG", procs: 16}},
				{base: ring8, twins: []patRef{{bench: "reduce-scatter", procs: 8}}},
			},
		},
		sweepVariants: 1,
		setups:        map[string]int{"offline-flow": 1, "serve-hit": 1, "serve-sweep": 1},
	}
}

type benchArgs struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	out      string
	sizes    sizes
	// wrap, when set, wraps the HTTP client transport of the serve
	// workloads; the self-test corrupts a response body through it.
	wrap func(http.RoundTripper) http.RoundTripper
}

func newWorkload(a benchArgs, golden map[string]goldenEntry, dataRoot string) (workload, error) {
	switch a.workload {
	case "offline-flow":
		return newOfflineFlow(a.sizes, a.seed, golden), nil
	case "serve-hit":
		return newServeHit(a.sizes, a.seed, golden, dataRoot, a.wrap), nil
	case "serve-sweep":
		return newServeSweep(a.sizes, a.seed, golden, dataRoot, a.wrap), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want offline-flow, serve-hit or serve-sweep)", a.workload)
}

func bench(stdout io.Writer, a benchArgs) error {
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(a.out, 0o755); err != nil {
		return err
	}
	dataRoot, err := os.MkdirTemp(a.out, "data-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataRoot)
	w, err := newWorkload(a, golden, dataRoot)
	if err != nil {
		return err
	}
	defer w.close()
	minRounds := 1
	if a.traced {
		minRounds = 2
	}
	res, err := runWorkload(w, runConfig{seconds: a.seconds, traced: a.traced, setups: a.sizes.setups[a.workload], minRound: minRounds})
	if err != nil {
		return err
	}

	env := environment()
	var metrics map[string]float64
	var specs []metricSpec
	if a.traced {
		metrics, specs = res.layer, perLayer()
		path := filepath.Join(a.out, fmt.Sprintf("spans-%s-seed%d.json", a.workload, a.seed))
		if err := writeTrace(path, a, env, res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	} else {
		metrics, specs = endToEndMetrics(res), endToEnd
	}

	fmt.Fprintf(stdout, "workload %s seed %d: %d rounds, %d operations, %d failed\n",
		a.workload, a.seed, len(res.rounds), res.attempted, res.failed)
	fmt.Fprintf(stdout, "env: %s\n", env)
	for _, line := range w.summary() {
		fmt.Fprintf(stdout, "  %s\n", line)
	}
	for _, line := range classSummary(res) {
		fmt.Fprintf(stdout, "  %s\n", line)
	}
	for _, f := range res.failures {
		fmt.Fprintf(stdout, "  FAILED %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]value)}
	for _, s := range specs {
		fmt.Fprintf(stdout, "  %-44s %14.6g %s\n", s.Name, metrics[s.Name], s.Unit)
		out.Metrics[s.Name] = value{metrics[s.Name], s.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return nil
}

// classSummary reports the measured share and median latency of every
// operation class, so the traffic mix is verified rather than assumed.
func classSummary(res *runResult) []string {
	var names []string
	total := 0
	for c, l := range res.byClass {
		names = append(names, c)
		total += len(l)
	}
	sort.Strings(names)
	var out []string
	for _, c := range names {
		l := res.byClass[c]
		out = append(out, fmt.Sprintf("class %-26s share %.3f  n=%-6d p50 %.3f ms", c, float64(len(l))/float64(total), len(l), ms(median(l))))
	}
	return out
}

type runEnv struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func (e runEnv) String() string {
	return fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d %s commit %s", e.GOMAXPROCS, e.NumCPU, e.GoVersion, e.Commit)
}

// environment records where a result was measured. The commit comes from
// the build's VCS stamp, which exists only when built inside a git work
// tree.
func environment() runEnv {
	e := runEnv{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		e.Commit += dirty
	}
	return e
}

// traceFile is the traced run's output: the per-layer metrics, the summed
// self time of every span name, the mean duration of every span name per
// label (offline pattern, hit class or sweep request), and every span.
type traceFile struct {
	Workload string                        `json:"workload"`
	Seed     int64                         `json:"seed"`
	Env      runEnv                        `json:"env"`
	Metrics  map[string]float64            `json:"metrics"`
	SelfMs   map[string]float64            `json:"self_ms_by_span"`
	ByLabel  map[string]map[string]float64 `json:"mean_ms_by_label"`
	Spans    []span                        `json:"spans"`
}

func writeTrace(path string, a benchArgs, env runEnv, res *runResult) error {
	tf := traceFile{Workload: a.workload, Seed: a.seed, Env: env, Metrics: res.layer,
		SelfMs: make(map[string]float64), ByLabel: make(map[string]map[string]float64)}
	for name, d := range selfTimes(res.spans) {
		tf.SelfMs[name] = ms(d)
	}
	count := make(map[[2]string]int)
	for _, l := range res.spans {
		tf.Spans = append(tf.Spans, l...)
		for _, s := range l {
			if tf.ByLabel[s.Label] == nil {
				tf.ByLabel[s.Label] = make(map[string]float64)
			}
			tf.ByLabel[s.Label][s.Name] += ms(s.dur())
			count[[2]string{s.Label, s.Name}]++
		}
	}
	for k, n := range count {
		tf.ByLabel[k[0]][k[1]] /= float64(n)
	}
	b, err := json.MarshalIndent(&tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
