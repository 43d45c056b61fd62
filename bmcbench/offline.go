package main

import (
	"fmt"
	"time"
)

// The offline workloads (bounded-suite, deep-bug) share one runner. The
// seed fixes one list of verdict calls, a pass. After one untimed
// warm-up pass the runner repeats the pass until the window is used up
// (at least minPasses times) and reports medians over passes. Budgets
// are deterministic, so every pass decides the same calls: decided_frac
// repeats exactly for a given seed.
//
// A traced run alternates untraced and traced passes: the untraced ones
// are the base the tracing overhead is measured against, the traced ones
// give the per-layer numbers.
//
// Set-up takes a few milliseconds, short enough that the machine's state
// during any one stretch of it decides its time. So besides the rounds
// before the first pass, the runner repeats set-up between the timed
// passes, and setup_s is the median over rounds spread across the run.

const (
	minPasses   = 3
	setupRounds = 9 // set-up rounds before the first pass
	// setupRoundsPerPass is how many set-up rounds run before each timed
	// pass, outside its timing.
	setupRoundsPerPass = 5
)

// callResult is the outcome of one verdict call.
type callResult struct {
	decided bool
	// wrong is set when the correctness gate rejected the answer.
	wrong error
	// counts are layer counters from the layers' own Stats/Result
	// values, filled on traced calls only.
	counts map[string]float64
}

// offlineWorkload is what the runner needs from a workload.
type offlineWorkload struct {
	calls int
	// call runs call i. tr is nil on untraced passes; root is the span
	// the call's layer spans hang under.
	call func(i int, tr *tracer, root int) callResult
	// layers turns a traced run's per-pass self times and counters into
	// the per-layer metrics.
	layers func(rep *report, self map[string]float64, counts map[string]float64, tr *tracer, passes int)
	// setup repeats the workload's set-up; its result is discarded.
	setup func() error
}

// passStats summarises one pass.
type passStats struct {
	wall    time.Duration
	decided int
	lat     []float64 // per-call latency, ms
}

// runPass runs every call once. On a traced pass (tr non-nil) the
// calls' counters are accumulated into counts.
func runPass(w offlineWorkload, tr *tracer, counts map[string]float64, rep *report) passStats {
	var ps passStats
	start := time.Now()
	for i := 0; i < w.calls; i++ {
		t := time.Now()
		root := tr.begin("call", i, -1)
		r := w.call(i, tr, root)
		tr.end(root)
		ps.lat = append(ps.lat, ms(time.Since(t)))
		rep.attempted++
		if r.decided {
			ps.decided++
		}
		if r.wrong != nil {
			rep.failed++
			rep.wrongf("%v", r.wrong)
		}
		for k, v := range r.counts {
			if isMaxCounter(k) {
				counts[k] = max(counts[k], v)
			} else {
				counts[k] += v
			}
		}
	}
	ps.wall = time.Since(start)
	return ps
}

// runOffline drives an offline workload and fills rep's metrics.
func runOffline(cfg config, w offlineWorkload, setupSecs []float64, rep *report) error {
	if w.calls == 0 {
		return fmt.Errorf("empty pass")
	}
	warm := runPass(w, nil, nil, rep)
	var plain, traced []passStats
	var tr *tracer
	counts := map[string]float64{}
	if cfg.trace {
		tr = newTracer()
	}
	deadline := time.Now().Add(cfg.window)
	for len(plain) < minPasses || (cfg.trace && len(traced) < minPasses) || time.Now().Before(deadline) {
		_, secs, err := timeSetup(setupRoundsPerPass, func() (struct{}, error) { return struct{}{}, w.setup() })
		if err != nil {
			return err
		}
		setupSecs = append(setupSecs, secs...)
		plain = append(plain, runPass(w, nil, nil, rep))
		if cfg.trace {
			traced = append(traced, runPass(w, tr, counts, rep))
		}
	}
	for _, p := range append(plain, traced...) {
		if p.decided != warm.decided {
			return fmt.Errorf("decided count changed between passes (%d vs %d): budgets are not deterministic", p.decided, warm.decided)
		}
	}

	// Each call's latency is its median over the timed passes, so a
	// scheduling hiccup in one pass does not move the percentiles.
	var walls []float64
	lats := make([]float64, w.calls)
	for i := range lats {
		var per []float64
		for _, p := range plain {
			per = append(per, p.lat[i])
		}
		lats[i] = median(per)
	}
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
	}
	wall := median(walls)
	rep.notef("%d calls per pass, %d timed passes; percentiles over the calls' per-pass medians; decided %d of %d per pass",
		w.calls, len(plain), warm.decided, w.calls)
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		rep.set("setup_s", "s", median(setupSecs))
		rep.set("wall_s", "s", wall)
		rep.set("decided_frac", "fraction", float64(warm.decided)/float64(w.calls))
		rep.set("peak_rss_mb", "MiB", rss)
		rep.set("p50_ms", "ms", quantile(lats, 0.50))
		rep.set("p99_ms", "ms", quantile(lats, 0.99))
		rep.set("goodput_per_s", "1/s", float64(warm.decided)/wall)
		return nil
	}

	// Per pass: self times in ms and counters, averaged over the traced
	// passes.
	n := float64(len(traced))
	self := map[string]float64{}
	for layer, d := range tr.selfTimes() {
		self[layer] = ms(d) / n
	}
	for k, v := range counts {
		if !isMaxCounter(k) {
			counts[k] = v / n
		}
	}
	var twalls []float64
	for _, p := range traced {
		twalls = append(twalls, p.wall.Seconds())
	}
	zeroLayers(rep)
	w.layers(rep, self, counts, tr, len(traced))
	// Residual: the time of each call not covered by a layer span — the
	// benchmark's own glue (gate checks, bookkeeping).
	rep.set("trace.residual_ms", "ms", self["call"])
	rep.set("trace.overhead_frac", "fraction", median(twalls)/wall-1)
	rep.notef("traced pass %.3fs vs untraced %.3fs; tracer bookkeeping %.3fms per pass",
		median(twalls), wall, ms(tr.cost)/n)
	return nil
}

// isMaxCounter marks counters that are high-water marks, combined by
// max instead of summed.
func isMaxCounter(k string) bool {
	return k == "sat.clause_db_peak_bytes" || k == "jsat.peak_bytes"
}
