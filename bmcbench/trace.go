package main

import (
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory until the run ends; nothing is written while a
// workload is being timed. A nil *tracer is the untraced run: every
// method is a no-op, so the untraced and traced paths share one code
// path.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// cost is the time spent inside begin/end themselves, the tracer's
	// own bookkeeping.
	cost time.Duration
}

// span is one timed call into a layer. Spans of one verdict share req;
// parent is the index of the enclosing span, -1 for a root.
type span struct {
	layer      string
	req        int
	parent     int
	start, end time.Duration // offsets from t0
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(layer string, req, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{layer: layer, req: req, parent: parent, start: now.Sub(t.t0), end: -1})
	t.cost += time.Since(now)
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].end = now.Sub(t.t0)
	t.cost += time.Since(now)
	t.mu.Unlock()
}

// selfTimes returns each layer's self time: the sum over its spans of
// the span's duration minus the part of that interval its child spans
// cover. Spans still open are ignored.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		d -= covered(s, t.spans, children[i])
		out[s.layer] += d
	}
	return out
}

// durations returns the durations of every closed span of one layer.
func (t *tracer) durations(layer string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.layer == layer && s.end >= 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval. Concurrent children (the two arms of Prove)
// overlap; the union counts their common time once.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		c := spans[k]
		if c.end < 0 {
			continue
		}
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}
