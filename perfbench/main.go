// Command perfbench is the repository benchmark. It drives three
// workloads through the repo's public module APIs and prints one JSON
// result line:
//
//   - tick-path: scenario traffic replayed open-loop through
//     serve.Server.Submit with a constant-time predictor standing in for
//     the offloaded CGRA, so the host tick path does all the work;
//   - inference: calm traffic through the same runtime with the real Go
//     DeepLOB forward pass, so nn/tensor do almost all the work;
//   - backtest: sim.Run over core.System on a long trading-day query
//     stream, the paper's evaluation loop on its modelled clock.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload tick-path --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 additionally runs an
// instrumented pass and reports per-layer metrics, the tracing overhead
// and the path of the span file it wrote. See README.md for every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// epoch anchors now, the one monotonic wall clock every workload reads
// (serve's Config.Clock, due times, spans).
var epoch = time.Now()

// now returns monotonic wall-clock nanoseconds since start-up.
func now() int64 { return int64(time.Since(epoch)) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and correctness checks for one run.
type report struct {
	e2e    map[string]metric
	layer  map[string]metric
	failed bool
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// check prints one correctness check; a violated check fails the run.
func (r *report) check(name string, ok bool, format string, args ...any) {
	status := "ok"
	if !ok {
		status = "FAIL"
		r.failed = true
	}
	fmt.Printf("check %-28s %-4s %s\n", name, status, fmt.Sprintf(format, args...))
}

// note prints a diagnostic number that is neither gated nor a metric of
// the JSON line in this mode.
func note(name string, v float64, unit string) {
	fmt.Printf("note  %-28s %.6g %s\n", name, v, unit)
}

// workload is one benchmark workload: it performs its own set-up (timed
// setupReps times, median reported), measures for the given duration and
// fills the report.
type workload func(opts options, r *report) (attempted, failed int, err error)

type options struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for the span file
	name    string
}

// Each run builds its set-up at least minSetupReps times and until
// minSetupSeconds have passed (at most maxSetupReps); setup_s is the median
// build time, so one slow build does not move it and a build of a few
// milliseconds is still timed over many repetitions.
const (
	minSetupReps    = 3
	maxSetupReps    = 100
	minSetupSeconds = 1.5
)

var workloads = map[string]workload{
	"tick-path": func(o options, r *report) (int, int, error) { return runServing(tickPathSpec(), o, r) },
	"inference": func(o options, r *report) (int, int, error) { return runServing(inferenceSpec(), o, r) },
	"backtest":  runBacktest,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.name, "workload", "", "workload: tick-path, inference or backtest")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per pass")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span files")
	list := flag.Bool("list", false, "print the declared metrics in BENCHMARK.json form and exit")
	flag.Parse()
	if *list {
		out, err := json.MarshalIndent(map[string][]metricSpec{"end_to_end": endToEnd, "per_layer": perLayer()}, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	o.trace = trace == 1
	w, ok := workloads[o.name]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.name, o.seconds, trace)
		os.Exit(2)
	}
	o.out = filepath.Join(o.out, "spans")

	r := newReport()
	attempted, failed, err := w(o, r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.name, err)
		os.Exit(1)
	}
	metrics, specs := r.e2e, endToEnd
	if o.trace {
		metrics, specs = r.layer, perLayer()
	}
	if err := complete(metrics, specs, o.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.name, err)
		os.Exit(1)
	}
	for _, k := range sortedKeys(metrics) {
		fmt.Printf("metric %-36s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	line, err := json.Marshal(result{Correct: !r.failed, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if r.failed {
		os.Exit(1)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// timedSetup runs build repeatedly (see minSetupReps) and returns the last
// product with the median build time in seconds.
func timedSetup[T any](build func() (T, error)) (T, float64, error) {
	var v T
	var secs []float64
	var total float64
	for len(secs) < minSetupReps || (total < minSetupSeconds && len(secs) < maxSetupReps) {
		// Start every build from a collected heap, so no build pays for
		// the garbage of the one before.
		runtime.GC()
		start := time.Now()
		var err error
		if v, err = build(); err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		total += secs[len(secs)-1]
	}
	return v, median(secs), nil
}

// quantile returns the nearest-rank q-quantile of an unsorted sample
// (sorted in place); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqm is the interquartile mean: the mean of the middle half of the sample
// (sorted in place). Where a distribution has two modes near its median,
// as the inference workload's served-at-once and queued-behind-a-sibling
// ticks do, the median jumps between them from run to run; the
// interquartile mean moves smoothly with their shares.
func iqm(xs []float64) float64 {
	quantile(xs, 0.5)
	return mean(xs[len(xs)/4 : len(xs)-len(xs)/4])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailQuantile is the highest of p99.9, p99, p98, p95 and p90 that has at
// least ten of the n samples beyond it.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.98, 0.95} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.9
}
