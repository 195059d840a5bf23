// Command perfbench is the repository's benchmark: it runs one named
// workload against the program's public packages for a fixed time, checks
// every result for correctness, and prints its metrics. Run it through
// run.sh from the repository root:
//
//	bash perfbench/run.sh --workload batch --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the named workload untraced and reports the
// end-to-end metrics. With --trace 1 it runs the per-layer probes and every
// workload once with spans recorded around each call into a layer, and
// reports the per-layer metrics. --workload all runs every workload
// untraced and prints their full reports. README.md says why each workload
// exists.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Metric is one reported number with its unit and the sample count it
// rests on. A median carries its quartiles; a tail percentile carries the
// number of samples beyond it.
type Metric struct {
	Value    float64
	Unit     string
	N        int
	P25, P75 float64
	Beyond   int
	kind     byte // 'm' median, 't' tail percentile, 0 plain
}

// Run is the state of one benchmark invocation, shared by the workloads.
type Run struct {
	Seed    int64
	Window  time.Duration // how long the workload's load phase lasts
	Workers int           // nproc, which the workloads size their engines from
	Trace   *Tracer       // nil when untraced
	Dir     string        // scratch directory inside the checkout
	Log     io.Writer     // human-readable report

	attempted, failed int
	failures          []string
	metrics           map[string]Metric
}

// Op records one operation's outcome; a non-nil err counts it as failed.
func (r *Run) Op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// Set records a metric.
func (r *Run) Set(name, unit string, value float64, n int) {
	r.metrics[name] = Metric{Value: value, Unit: unit, N: n}
}

// Median records the median of xs with its quartiles.
func (r *Run) Median(name, unit string, xs []float64) Summary {
	s := Summarize(xs)
	r.metrics[name] = Metric{Value: s.P50, Unit: unit, N: s.N, P25: s.P25, P75: s.P75, kind: 'm'}
	return s
}

// Tail records the nearest-rank q-percentile of xs.
func (r *Run) Tail(name, unit string, xs []float64, q float64) {
	v, beyond := NearestRank(xs, q)
	r.metrics[name] = Metric{Value: v, Unit: unit, N: len(xs), Beyond: beyond, kind: 't'}
}

// workload is one named input set.
type workload struct {
	name string
	run  func(ctx context.Context, r *Run) error
}

var workloads = []workload{
	{"batch", runBatch},
	{"certify", runCertify},
	{"serve-mixed", runServeMixed},
	{"serve-fleet", runServeFleet},
}

// endToEnd lists the metrics every untraced run reports in its result
// line, each with the same meaning on every workload (see README.md).
var endToEnd = []string{"setup_s", "peak_rss_mb", "sweep_s", "p50_ms", "p90_ms"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: batch, certify, serve-mixed, serve-fleet, or all")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs every workload once traced and reports per-layer metrics")
	regen := fs.String("regen", "", "write the expected batch digests to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *regen != "" {
		if err := writeExpected(ctx, *regen); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	var chosen workload
	for _, w := range workloads {
		if w.name == *name {
			chosen = w
		}
	}
	if chosen.run == nil && *name != "all" {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: scratch directory:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	env := stamp()
	fmt.Fprintf(stdout, "env %s\n", mustJSON(env))
	base := Run{Seed: *seed, Window: time.Duration(*seconds) * time.Second, Workers: runtime.NumCPU(), Dir: dir, Log: stdout}

	var res result
	switch {
	case *trace == 1:
		res, err = traced(ctx, base, *name)
	case *name == "all":
		res, err = untracedAll(ctx, base)
	default:
		res, err = untraced(ctx, base, chosen)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	env.LoadEnd = loadavg()
	fmt.Fprintf(stdout, "env-end %s\n", mustJSON(env))
	fmt.Fprintln(stdout, mustJSON(res))
	return 0
}

// result is the final output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// untraced runs one workload and reports its end-to-end metrics.
func untraced(ctx context.Context, base Run, w workload) (result, error) {
	r := base
	r.metrics = make(map[string]Metric)
	if err := runOne(ctx, &r, w); err != nil {
		return result{}, err
	}
	out := newResult(&r)
	for _, m := range endToEnd {
		v, ok := r.metrics[m]
		if !ok || math.IsNaN(v.Value) || v.Value <= 0 {
			return result{}, fmt.Errorf("%s: metric %s missing or not positive (%v)", w.name, m, v.Value)
		}
		out.Metrics[m] = jsonMetric{Value: v.Value, Unit: v.Unit}
	}
	return out, nil
}

// untracedAll runs every workload in turn and reports each one's metrics
// under "<workload>.<metric>".
func untracedAll(ctx context.Context, base Run) (result, error) {
	out := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range workloads {
		res, err := untraced(ctx, base, w)
		if err != nil {
			return result{}, err
		}
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		out.Correct = out.Correct && res.Correct
		for k, v := range res.Metrics {
			out.Metrics[w.name+"."+k] = v
		}
	}
	return out, nil
}

// runOne runs a workload and prints its report.
func runOne(ctx context.Context, r *Run, w workload) error {
	fmt.Fprintf(r.Log, "workload %s seed %d window %s workers %d traced %v\n", w.name, r.Seed, r.Window, r.Workers, r.Trace != nil)
	if err := w.run(ctx, r); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if r.attempted == 0 {
		return fmt.Errorf("%s: attempted no operation", w.name)
	}
	r.Set("failed_share", "share", float64(r.failed)/float64(r.attempted), r.attempted)
	r.Set("peak_rss_mb", "MB", peakRSSMB(), 1)
	for _, f := range r.failures {
		fmt.Fprintf(r.Log, "  FAILED %s\n", f)
	}
	printMetrics(r.Log, r.metrics)
	return nil
}

func newResult(r *Run) result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
}

func printMetrics(w io.Writer, ms map[string]Metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := ms[k]
		fmt.Fprintf(w, "  %-56s %14.6g %-5s n=%d", k, m.Value, m.Unit, m.N)
		switch m.kind {
		case 'm':
			fmt.Fprintf(w, " quartiles [%.6g, %.6g]", m.P25, m.P75)
		case 't':
			fmt.Fprintf(w, " beyond=%d", m.Beyond)
		}
		fmt.Fprintln(w)
	}
}

// Env is the environment stamp printed with every result. Results with
// different NProc or GOMAXPROCS must not be compared.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	LoadStart  string `json:"load_start"`
	LoadEnd    string `json:"load_end,omitempty"`
	Revision   string `json:"git_revision"`
	Dirty      bool   `json:"git_dirty"`
}

func stamp() Env {
	rev, dirty := revision()
	return Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		LoadStart:  loadavg(),
		Revision:   rev,
		Dirty:      dirty,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// scratch returns a fresh directory under the run's scratch directory.
func (r *Run) scratch(name string) (string, error) {
	d := filepath.Join(r.Dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 5

// medianSetup runs setup several times and reports the median duration as
// setup_s, keeping the last instance; the earlier ones are torn down.
func medianSetup[T any](r *Run, times int, setup func(i int) (T, error), teardown func(T)) (T, error) {
	var last T
	var ds []float64
	for i := 0; i < times; i++ {
		t0 := time.Now()
		v, err := setup(i)
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
		if i < times-1 {
			teardown(v)
		}
		last = v
	}
	r.Median("setup_s", "s", ds)
	return last, nil
}

// revision reads the VCS stamp the Go toolchain put in the binary; a build
// outside a git checkout has none.
func revision() (rev string, dirty bool) {
	rev = "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return rev, false
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return rev, dirty
}
