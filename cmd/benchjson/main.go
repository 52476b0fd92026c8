// Command benchjson converts `go test -bench` text output into a JSON
// summary. It reads the benchmark text from stdin, echoes it unchanged to
// stdout (so the stream stays usable with benchstat), and writes one JSON
// document with a record per benchmark result.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH.json [-raw BENCH.txt] [-baseline OLD.json -budget 2]
//
// With -baseline, each result is matched (by name, GOMAXPROCS suffix
// stripped) against the baseline report and annotated with the baseline
// ns/op and the percentage delta; with a positive -budget, any matched
// benchmark slower than baseline by more than that percentage fails the
// run with exit status 1 — the regression gate `make bench-obs` uses to
// keep telemetry overhead under 2%.
//
// With -ratio NUM:DEN (two benchmark names, GOMAXPROCS suffix optional,
// separated by ':' since names may contain '/'), the report gains a
// speedup record ns(NUM)/ns(DEN); -ratio repeats to gate several pairs in
// one run. With -min-ratio, the run fails when any measured ns/op ratio
// falls below that floor; with -min-alloc-ratio (requires -benchmem
// input), the same check applies to the allocs/op ratio. A spec of the form
// NUM:DEN:MIN[:MINALLOC] sets that pair's own floors in place of the
// global ones, so pairs with different expected speedups share one run
// (`make bench-key` gates the key at >= 5x and the decoder at >= 1.3x).
// Because both
// sides run on the same machine in the same invocation, the gates are
// machine-independent — `make bench-flitsim` holds the reference-engine/
// event-engine speedup at >= 10x, and `make perf-synth` holds the
// reference/incremental move-engine ratio at >= 2x time and >= 5x allocs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line. Bytes/Allocs are present only when the run
// used -benchmem.
type Result struct {
	Name        string   `json:"name"`
	Pkg         string   `json:"pkg,omitempty"`
	Runs        int64    `json:"runs"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// BaselineNsPerOp and VsBaselinePct are set when -baseline matched
	// this benchmark: the baseline's ns/op and this run's delta in
	// percent (positive = slower than baseline).
	BaselineNsPerOp *float64 `json:"baseline_ns_per_op,omitempty"`
	VsBaselinePct   *float64 `json:"vs_baseline_pct,omitempty"`
}

// Ratio is the speedup record produced by -ratio: Value is the numerator
// benchmark's ns/op divided by the denominator's. AllocValue is the same
// quotient over allocs/op, present only when both sides carried -benchmem
// stats.
type Ratio struct {
	Numerator     string   `json:"numerator"`
	Denominator   string   `json:"denominator"`
	Value         float64  `json:"value"`
	MinRatio      float64  `json:"min_ratio,omitempty"`
	AllocValue    *float64 `json:"alloc_value,omitempty"`
	MinAllocRatio float64  `json:"min_alloc_ratio,omitempty"`
}

// Report is the emitted JSON document. GoMaxProcs and NumCPU describe the
// converting host (the same machine that ran the benchmarks in the make
// targets' pipelines), so committed baselines record how parallel the
// measured runs actually were.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	GoMaxProcs int      `json:"gomaxprocs"`
	NumCPU     int      `json:"numcpu"`
	Results    []Result `json:"results"`
	// Ratio mirrors Ratios[0] for readers of the original single-ratio
	// reports; Ratios carries every -ratio record in flag order.
	Ratio  *Ratio  `json:"ratio,omitempty"`
	Ratios []Ratio `json:"ratios,omitempty"`
}

func main() {
	out := flag.String("o", "", "write the JSON report to this file (default stdout only)")
	raw := flag.String("raw", "", "also copy the raw benchmark text to this file")
	baseline := flag.String("baseline", "", "baseline JSON report to annotate ns/op deltas against")
	budget := flag.Float64("budget", 0, "fail when any matched benchmark is slower than -baseline by more than this percent")
	var ratioSpecs []string
	flag.Func("ratio", "NUM:DEN[:MIN[:MINALLOC]] benchmark names and optional per-pair floors; record the ns/op ratio ns(NUM)/ns(DEN) (repeatable)", func(v string) error {
		ratioSpecs = append(ratioSpecs, v)
		return nil
	})
	minRatio := flag.Float64("min-ratio", 0, "fail when any -ratio ns/op value is below this floor (a floor in the -ratio spec wins)")
	minAllocRatio := flag.Float64("min-alloc-ratio", 0, "fail when any -ratio allocs/op value is below this floor (input must use -benchmem; a floor in the -ratio spec wins)")
	flag.Parse()

	var rawBuf strings.Builder
	rep := Report{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Results:    []Result{},
	}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		rawBuf.WriteString(line)
		rawBuf.WriteByte('\n')
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				r.Pkg = pkg
				rep.Results = append(rep.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	var regressions []string
	if *baseline != "" {
		base, err := loadBaseline(*baseline)
		if err != nil {
			fatal(err)
		}
		for i := range rep.Results {
			r := &rep.Results[i]
			b, ok := base[stripGomaxprocs(r.Name)]
			if !ok || b.NsPerOp == 0 {
				continue
			}
			bns := b.NsPerOp
			pct := (r.NsPerOp - bns) / bns * 100
			r.BaselineNsPerOp = &bns
			r.VsBaselinePct = &pct
			if *budget > 0 && pct > *budget {
				regressions = append(regressions,
					fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (%+.2f%%, budget %.2f%%)",
						r.Name, r.NsPerOp, bns, pct, *budget))
			}
		}
	}
	for _, spec := range ratioSpecs {
		r, err := computeRatio(&rep, spec, *minRatio, *minAllocRatio)
		if err != nil {
			fatal(err)
		}
		rep.Ratios = append(rep.Ratios, *r)
		if r.MinRatio > 0 && r.Value < r.MinRatio {
			regressions = append(regressions,
				fmt.Sprintf("speedup %s / %s = %.2fx, below floor %.2fx",
					r.Numerator, r.Denominator, r.Value, r.MinRatio))
		}
		if r.MinAllocRatio > 0 {
			if r.AllocValue == nil {
				regressions = append(regressions,
					fmt.Sprintf("alloc ratio %s / %s: allocs/op missing (run the benchmarks with -benchmem)",
						r.Numerator, r.Denominator))
			} else if *r.AllocValue < r.MinAllocRatio {
				regressions = append(regressions,
					fmt.Sprintf("alloc ratio %s / %s = %.2fx, below floor %.2fx",
						r.Numerator, r.Denominator, *r.AllocValue, r.MinAllocRatio))
			}
		}
	}
	if len(rep.Ratios) > 0 {
		rep.Ratio = &rep.Ratios[0]
	}
	if *raw != "" {
		if err := os.WriteFile(*raw, []byte(rawBuf.String()), 0o644); err != nil {
			fatal(err)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "benchjson: regression:", r)
		}
		os.Exit(1)
	}
}

// computeRatio resolves one -ratio spec against the parsed results. Names
// match with the GOMAXPROCS suffix stripped on both sides; floors given in
// the spec override minRatio and minAllocRatio.
func computeRatio(rep *Report, spec string, minRatio, minAllocRatio float64) (*Ratio, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 4 || parts[0] == "" || parts[1] == "" {
		return nil, fmt.Errorf("-ratio %q: want NUM:DEN[:MIN[:MINALLOC]]", spec)
	}
	num, den := parts[0], parts[1]
	for i, floor := range []*float64{&minRatio, &minAllocRatio} {
		if len(parts) <= 2+i {
			break
		}
		v, err := strconv.ParseFloat(parts[2+i], 64)
		if err != nil {
			return nil, fmt.Errorf("-ratio %q: bad floor %q", spec, parts[2+i])
		}
		*floor = v
	}
	find := func(name string) (Result, error) {
		want := stripGomaxprocs(name)
		for _, r := range rep.Results {
			if stripGomaxprocs(r.Name) == want {
				return r, nil
			}
		}
		return Result{}, fmt.Errorf("-ratio: benchmark %q not found in input", name)
	}
	rn, err := find(num)
	if err != nil {
		return nil, err
	}
	rd, err := find(den)
	if err != nil {
		return nil, err
	}
	if rd.NsPerOp == 0 {
		return nil, fmt.Errorf("-ratio: denominator %q has 0 ns/op", den)
	}
	r := &Ratio{
		Numerator:     stripGomaxprocs(rn.Name),
		Denominator:   stripGomaxprocs(rd.Name),
		Value:         rn.NsPerOp / rd.NsPerOp,
		MinRatio:      minRatio,
		MinAllocRatio: minAllocRatio,
	}
	if rn.AllocsPerOp != nil && rd.AllocsPerOp != nil && *rd.AllocsPerOp != 0 {
		av := *rn.AllocsPerOp / *rd.AllocsPerOp
		r.AllocValue = &av
	}
	return r, nil
}

// loadBaseline reads a prior benchjson report and indexes its results by
// benchmark name with the GOMAXPROCS suffix stripped, so runs from
// machines with different core counts still match.
func loadBaseline(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("baseline %s: %v", path, err)
	}
	m := make(map[string]Result, len(rep.Results))
	for _, r := range rep.Results {
		m[stripGomaxprocs(r.Name)] = r
	}
	return m, nil
}

// stripGomaxprocs drops the trailing -N go test appends to benchmark names.
func stripGomaxprocs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseBench parses one benchmark result line, e.g.
//
//	BenchmarkFastColor-8   42454426   30.19 ns/op   0 B/op   0 allocs/op
func parseBench(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Result{}, false
	}
	runs, err1 := strconv.ParseInt(fields[1], 10, 64)
	ns, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Runs: runs, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			r.BytesPerOp = &v
		case "allocs/op":
			r.AllocsPerOp = &v
		}
	}
	return r, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
