// Command bmcbench is the repository's benchmark: one command, three
// workloads, end-to-end metrics from an untraced run and per-layer
// metrics from a traced run. It drives the system only through public
// calls — the sebmc facade, the exported functions of internal/*, and
// service.Server.Handler() behind loopback listeners — and fails the run
// on any wrong verdict, any REACHABLE whose witness does not replay and
// any SAFE whose certificate does not validate.
//
// Usage, from the repository root:
//
//	bash bmcbench/run.sh --workload bounded-suite --seed 1 --seconds 20 --trace 0
//
// Workloads: bounded-suite, deep-bug, bmcd-zipf (see README.md). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is what every workload runner receives.
type config struct {
	seed   int64
	window time.Duration // how long the timed part of the run lasts
	trace  bool
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload run's outcome.
type report struct {
	attempted int
	failed    int
	// wrong lists correctness-gate violations: a decided verdict that
	// disagrees with the reference table, a witness that does not replay,
	// a certificate that does not validate; or what made the run
	// invalid, such as a request generator that fell behind.
	wrong   []string
	metrics map[string]metric
	// notes are human-readable lines printed before the JSON result.
	notes []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) wrongf(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"bounded-suite": runSuite,
	"deep-bug":      runDeep,
	"bmcd-zipf":     runZipf,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "bounded-suite, deep-bug or bmcd-zipf")
		seed     = flag.Int64("seed", 1, "workload seed: picks the instances or the request stream")
		seconds  = flag.Int("seconds", 20, "length of the timed window, seconds")
		trace    = flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced (end-to-end metrics)")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bmcbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// One process, capped at the machine's CPUs: the same budget the
	// workloads' client pools use.
	runtime.GOMAXPROCS(nproc())

	rep, err := fn(config{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bmcbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}
	for _, w := range rep.wrong {
		fmt.Println("# WRONG: " + w)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.wrong) == 0, rep.attempted, rep.failed, rep.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bmcbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// nproc is the number of CPUs this process may use.
func nproc() int { return runtime.NumCPU() }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM),
// the paper's space axis, in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// quantile returns the nearest-rank q-quantile of xs (xs is sorted in
// place). 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// frac is a/b, 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeSetup runs build n times and returns each round's wall time in
// seconds together with the last build's result, so set-up cost can be
// reported as a median like every other timing. Each round starts from
// a collected heap, so no round pays for the garbage of the one before.
func timeSetup[T any](n int, build func() (T, error)) (T, []float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t := time.Now()
		v, err := build()
		if err != nil {
			return last, nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
		last = v
	}
	return last, secs, nil
}
