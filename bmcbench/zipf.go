package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	sebmc "repro"
	"repro/internal/circuits"
	"repro/internal/model"
	"repro/internal/service"
)

// bmcd-zipf: two in-process service.Server shards joined with
// JoinCluster, each behind its own loopback listener, fed an open-loop
// request stream at a fixed rate. The generator sprays both entry
// points round-robin, so about half the requests take a proxy hop.
// Model popularity is zipf over a corpus like bmcload's: factorizers
// with prime targets (every bound a genuine UNSAT proof, costly cold,
// free once cached or proven SAFE) alternating with small counters
// (cheap, most with counterexamples inside the bound range). On top of
// the popular corpus, one request in zipfFreshEvery deepens a model the
// cluster has never seen — a fresh factorizer, as from a stream of new
// designs — to the largest bound, so full cold solves arrive at a fixed
// rate and cost instead of in a cache-warming burst. Cache hits set the
// median; cold solves, session builds and cache fills set the tail.
const (
	zipfModels     = 48  // the popular corpus
	zipfFresh      = 240 // never-repeated models, one per fresh request
	zipfFreshEvery = 40  // every 40th request deepens a fresh model
	zipfBoundMax   = 16
	zipfRate       = 50.0 // offered requests per second
	zipfSkew       = 1.2  // zipf exponent over corpus popularity
	zipfDeepen     = 0.4  // share of corpus requests that are linear deepens
	zipfProve      = 0.1  // share of corpus requests that are prove requests
	// zipfTimeoutMS is every request's solving budget: a safety net
	// only, far above any request's cost, so no answer depends on it.
	zipfTimeoutMS = 20000
	zipfGossip    = 200 * time.Millisecond
	// zipfSetupRounds is how many times set-up (corpus, shard boot,
	// gossip convergence) runs before the window; the last cluster
	// serves it. An untraced run repeats set-up zipfSetupRoundsAfter
	// times once the window's cluster is closed, and reports the median
	// of all rounds, so setup_s samples the machine at both ends of the
	// run rather than during one stretch of it.
	zipfSetupRounds      = 5
	zipfSetupRoundsAfter = 6
	// zipfWarmup is the untimed start of the stream: the popular
	// models' first requests fill the caches and sessions, so the timed
	// window sees the steady mix rather than the cold-start transient.
	zipfWarmup = 5 * time.Second
	// zipfFactorWidth is the factorizers' operand width: a cold UNSAT
	// proof costs about 10 ms per bound.
	zipfFactorWidth = 8
	zipfFirstTarget = 12000
	// zipfMaxLateP50MS and zipfMaxLateP99MS bound the generator's
	// lateness (send time minus intended arrival) over the timed window.
	// Latency is measured from intended arrival, so a generator that
	// falls behind adds its lateness to every latency; past either
	// bound the run is invalid. On a 2-vCPU VM a healthy run shows
	// 0.6–0.8 ms at the median, which a paced sleep shows on the idle
	// VM too, and 7–18 ms at p99, where the generator waits for a CPU
	// the shards are solving on (10 ms is the Go scheduler's
	// preemption slice).
	zipfMaxLateP50MS = 2.0
	zipfMaxLateP99MS = 50.0
)

// zipfAddrs pins the shards' listen addresses. Ownership is rendezvous
// hashing over the shard IDs, which are the listener URLs, so random
// ports would move the owned split between identical runs.
var zipfAddrs = []string{"127.0.0.1:47811", "127.0.0.1:47812"}

// zipfFactorTargets are the primes from zipfFirstTarget on, one per
// factorizer: well inside the operand product range, so the UNSAT
// proofs go through the multiplier structure.
var zipfFactorTargets = func() []uint64 {
	var out []uint64
	for t := uint64(zipfFirstTarget); len(out) < zipfModels/2+zipfFresh; t++ {
		if !hasFactorization(t, 32) {
			out = append(out, t)
		}
	}
	return out
}()

// zipfModel builds model i. Below zipfModels it is the popular corpus:
// factorizers at even indices; at odd ones, counters of four kinds
// (binary, Gray-coded, Johnson, enabled by an input) with widths 5..8
// and targets 4..15. From zipfModels on it is the fresh factorizers.
func zipfModel(i int) *model.System {
	if i >= zipfModels {
		return circuits.Factorizer(zipfFactorWidth, zipfFactorTargets[zipfModels/2+i-zipfModels])
	}
	j := i / 2
	if i%2 == 0 {
		return circuits.Factorizer(zipfFactorWidth, zipfFactorTargets[j])
	}
	v := j / 4
	width, target := 5+v%4, uint64(4+v)
	switch j % 4 {
	case 0:
		return circuits.Counter(width, target)
	case 1:
		return circuits.GrayCounter(width, target)
	case 2:
		return circuits.Johnson(width, target)
	}
	return circuits.CounterEnable(width, target)
}

func zipfModelName(i int) string { return fmt.Sprintf("zipf-%03d", i) }

// zipfRequest is one request of the stream.
type zipfRequest struct {
	Model  int    `json:"model"`
	Kind   string `json:"kind"` // check, deepen or prove
	Engine string `json:"engine,omitempty"`
	Bound  int    `json:"bound"`
	Entry  int    `json:"entry"` // shard the client sends it to
}

// zipfStream is the seed's request stream of n requests, arriving at
// zipfRate. Every zipfFreshEvery-th request deepens the next fresh
// model to zipfBoundMax. The others pick a corpus
// model by zipf popularity, a kind by the mix and a bound uniform in
// 1..zipfBoundMax; checks name jsat on models without primary inputs
// (a single successor per state, jSAT's good case) and sat-incr
// otherwise. Entry shards alternate.
func zipfStream(seed int64, n int, inputs []int) ([]zipfRequest, error) {
	if n > zipfFresh*zipfFreshEvery {
		return nil, fmt.Errorf("%d requests need more than the %d fresh models", n, zipfFresh)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfSkew, 1, uint64(zipfModels-1))
	out := make([]zipfRequest, n)
	fresh := zipfModels
	for i := range out {
		r := zipfRequest{Entry: i % len(zipfAddrs), Bound: 1 + rng.Intn(zipfBoundMax)}
		if i%zipfFreshEvery == zipfFreshEvery-1 {
			r.Model, r.Kind, r.Engine, r.Bound = fresh, "deepen", "sat-incr", zipfBoundMax
			fresh++
		} else {
			r.Model = int(zipf.Uint64())
			switch p := rng.Float64(); {
			case p < zipfProve:
				r.Kind = "prove"
			case p < zipfProve+zipfDeepen:
				r.Kind, r.Engine = "deepen", "sat-incr"
			default:
				r.Kind, r.Engine = "check", "sat-incr"
				if inputs[r.Model] == 0 {
					r.Engine = "jsat"
				}
			}
		}
		out[i] = r
	}
	return out, nil
}

func (r zipfRequest) checkRequest(text string) service.CheckRequest {
	return service.CheckRequest{
		Model:       text,
		Format:      "aag",
		Bound:       r.Bound,
		Engine:      r.Engine,
		Deepen:      r.Kind == "deepen",
		Prove:       r.Kind == "prove",
		TimeoutMS:   zipfTimeoutMS,
		Witness:     true,
		Certificate: r.Kind == "prove",
	}
}

// zipfCorpus is the set-up's model material.
type zipfCorpus struct {
	texts  []string
	inputs []int
}

func buildZipfCorpus() (zipfCorpus, error) {
	c := zipfCorpus{texts: make([]string, zipfModels+zipfFresh), inputs: make([]int, zipfModels+zipfFresh)}
	for i := range c.texts {
		sys := zipfModel(i)
		var b strings.Builder
		if err := sebmc.WriteAIGER(sys, &b); err != nil {
			return c, fmt.Errorf("serialize corpus model %d: %w", i, err)
		}
		c.texts[i] = b.String()
		c.inputs[i] = sys.NumInputs()
	}
	return c, nil
}

// zipfSetup is one set-up round: it builds the corpus and boots the
// cluster, timed from a collected heap, and returns both with the
// round's wall time in seconds.
func zipfSetup(zt *zipfTrace) (zipfCorpus, *zipfCluster, float64, error) {
	runtime.GC()
	t := time.Now()
	corpus, err := buildZipfCorpus()
	if err != nil {
		return corpus, nil, 0, err
	}
	cluster, err := bootCluster(zt)
	if err != nil {
		return corpus, nil, 0, err
	}
	return corpus, cluster, time.Since(t).Seconds(), nil
}

// zipfCluster is the running two-shard deployment.
type zipfCluster struct {
	servers []*service.Server
	https   []*http.Server
	urls    []string
	serving sync.WaitGroup
}

// bootCluster starts every shard behind its pinned listener, joins them
// and waits until each sees the other healthy through gossip.
func bootCluster(zt *zipfTrace) (*zipfCluster, error) {
	c := &zipfCluster{}
	for i, addr := range zipfAddrs {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("listen on pinned shard address: %w", err)
		}
		// The service's default worker pool (one per CPU), so a cache hit
		// does not queue behind a single cold solve. The queue is deep
		// enough that the open loop is never refused.
		srv := service.New(service.Config{QueueDepth: 4096})
		h := srv.Handler()
		if zt != nil {
			h = zt.wrap(i, h)
		}
		hs := &http.Server{Handler: h}
		c.servers = append(c.servers, srv)
		c.https = append(c.https, hs)
		c.urls = append(c.urls, "http://"+addr)
		c.serving.Add(1)
		go func() {
			defer c.serving.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed on shutdown
		}()
	}
	for i, srv := range c.servers {
		if err := srv.JoinCluster(service.ClusterConfig{Self: c.urls[i], Shards: c.urls, GossipInterval: zipfGossip}); err != nil {
			c.close()
			return nil, err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		converged := true
		for _, srv := range c.servers {
			if m := srv.Metrics(); m.Cluster == nil || m.Cluster.PeersUp != len(c.servers)-1 {
				converged = false
			}
		}
		if converged {
			return c, nil
		}
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("gossip did not converge within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains every shard and stops its listener, waiting for the
// serving goroutines to exit.
func (c *zipfCluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, srv := range c.servers {
		_ = srv.Drain(ctx) // best effort: the process is about to stop serving
	}
	for _, hs := range c.https {
		_ = hs.Shutdown(ctx)
	}
	c.serving.Wait()
}

// zipfSample is one request's outcome.
type zipfSample struct {
	intended, sent, done time.Time
	res                  *service.JobResult
	err                  error
}

func (s zipfSample) latencyMS() float64 { return ms(s.done.Sub(s.intended)) }

func (s zipfSample) decided() bool {
	if s.err != nil || s.res == nil {
		return false
	}
	_, ok := statusOf(s.res.Status)
	return ok
}

func runZipf(cfg config) (*report, error) {
	rep := newReport()
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	var zt *zipfTrace
	if cfg.trace {
		zt = newZipfTrace()
	}
	// Set up several times; each round's cluster is drained outside the
	// timing, and the last one serves the window.
	var corpus zipfCorpus
	var cluster *zipfCluster
	defer func() {
		if cluster != nil {
			cluster.close()
		}
	}()
	var secs []float64
	for r := 0; r < zipfSetupRounds; r++ {
		if cluster != nil {
			cluster.close()
			cluster = nil
		}
		var s float64
		if corpus, cluster, s, err = zipfSetup(zt); err != nil {
			return nil, err
		}
		secs = append(secs, s)
	}

	warm := int(zipfRate * zipfWarmup.Seconds())
	reqs, err := zipfStream(cfg.seed, warm+int(zipfRate*cfg.window.Seconds()), corpus.inputs)
	if err != nil {
		return nil, err
	}
	var before []service.MetricsSnapshot
	samples, windowStart := generate(cluster, reqs, corpus, zt, warm, func() { before = metricsOf(cluster) })
	after := metricsOf(cluster)
	var last time.Time
	for _, s := range samples {
		if s.done.After(last) {
			last = s.done
		}
	}
	wall := last.Sub(windowStart)

	// Gate every answer, replaying witnesses and certificates.
	systems := make([]*sebmc.System, len(corpus.texts))
	for i, text := range corpus.texts {
		if systems[i], err = sebmc.LoadAIGER(strings.NewReader(text), 0); err != nil {
			return nil, err
		}
	}
	var lats, late []float64
	decided := 0
	var valW, valC []float64
	for i, s := range samples {
		rep.attempted++
		if i >= warm {
			lats = append(lats, s.latencyMS())
			late = append(late, ms(s.sent.Sub(s.intended)))
			if s.decided() {
				decided++
			}
		}
		if s.err != nil || s.res == nil || s.res.Status == service.StatusError {
			rep.failed++
			continue
		}
		wt, ct, err := gateZipf(reqs[i], s.res, systems[reqs[i].Model], ref)
		valW, valC = append(valW, wt...), append(valC, ct...)
		if err != nil {
			rep.failed++
			rep.wrongf("request %d (%s %s k=%d): %v", i, reqs[i].Kind, zipfModelName(reqs[i].Model), reqs[i].Bound, err)
		}
	}
	timed := len(lats)
	rep.notef("%d requests at %.0f/s: %d warm-up, %d timed over %v (%d decided); %d failed; p99 has %d samples beyond it",
		len(samples), zipfRate, warm, timed, cfg.window, decided, rep.failed, timed-int(0.99*float64(timed)))
	lateP50, lateP99 := quantile(late, 0.50), quantile(late, 0.99)
	rep.notef("generator lateness p50 %.3f ms, p99 %.3f ms (the run is invalid past %.0f ms or %.0f ms)",
		lateP50, lateP99, zipfMaxLateP50MS, zipfMaxLateP99MS)
	if lateP50 > zipfMaxLateP50MS || lateP99 > zipfMaxLateP99MS {
		rep.wrongf("run invalid: the generator fell behind its schedule (lateness p50 %.3f ms, p99 %.3f ms)", lateP50, lateP99)
	}
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		cluster.close()
		cluster = nil
		for r := 0; r < zipfSetupRoundsAfter; r++ {
			_, c, s, err := zipfSetup(nil)
			if err != nil {
				return nil, err
			}
			c.close()
			secs = append(secs, s)
		}
		rep.set("setup_s", "s", median(secs))
		rep.set("wall_s", "s", wall.Seconds())
		rep.set("decided_frac", "fraction", frac(float64(decided), float64(timed)))
		rep.set("peak_rss_mb", "MiB", rss)
		rep.set("p50_ms", "ms", quantile(lats, 0.50))
		rep.set("p99_ms", "ms", quantile(lats, 0.99))
		rep.set("goodput_per_s", "1/s", float64(decided)/wall.Seconds())
		return rep, nil
	}
	zeroLayers(rep)
	zt.layers(rep, reqs, samples, warm, before, after, corpus)
	setLayer(rep, "gen.lateness_ms", lateP99)
	setLayer(rep, "witness.validate_ms", sum(valW)/float64(max(1, len(valW))))
	setLayer(rep, "cert.validate_ms", sum(valC)/float64(max(1, len(valC))))
	return rep, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// generate runs the open loop: request i is due at i/zipfRate after the
// start, and is sent then whether or not earlier requests have been
// answered. Requests from index window on are the timed window; onWindow
// runs just before the first of them is due. Returns the samples and
// the window's start.
func generate(c *zipfCluster, reqs []zipfRequest, corpus zipfCorpus, zt *zipfTrace, window int, onWindow func()) ([]zipfSample, time.Time) {
	// One transport for the whole run, capped at nproc connections per
	// shard: the client's pool is the same size as the machine.
	base := &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc()}
	defer base.CloseIdleConnections()
	var rt http.RoundTripper = base
	if zt != nil {
		rt = taggingTransport{base}
	}
	clients := make([]*service.Client, len(c.urls))
	for i, u := range c.urls {
		// No retries: a 503 or a transport error is the answer.
		clients[i] = &service.Client{BaseURL: u, HTTP: &http.Client{Transport: rt}, MaxRetries: -1}
	}
	samples := make([]zipfSample, len(reqs))
	interval := time.Duration(float64(time.Second) / zipfRate)
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if i == window {
			onWindow()
		}
		wg.Add(1)
		go func(i int, r zipfRequest, due time.Time) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*zipfTimeoutMS*time.Millisecond)
			defer cancel()
			if zt != nil {
				ctx = zt.withRequest(ctx, i)
			}
			s := zipfSample{intended: due, sent: time.Now()}
			s.res, s.err = clients[r.Entry].Check(ctx, r.checkRequest(corpus.texts[r.Model]))
			s.done = time.Now()
			samples[i] = s
		}(i, r, due)
	}
	wg.Wait()
	return samples, start.Add(time.Duration(window) * interval)
}

// gateZipf checks one answer against the reference table and replays
// its witness and certificate on the benchmark's own copy of the model.
// It returns the replay times (ms).
func gateZipf(r zipfRequest, res *service.JobResult, sys *sebmc.System, ref *reference) (witnessMS, certMS []float64, err error) {
	name := zipfModelName(r.Model)
	st, ok := statusOf(res.Status)
	if !ok {
		return nil, nil, nil // UNKNOWN: undecided, nothing to check
	}
	switch {
	case st == sebmc.Safe:
		// A terminal verdict, fresh or served from the terminal cache
		// whatever was asked: no bad state at any depth.
		err = ref.checkProve(name, st, 0)
	case r.Kind == "check":
		err = ref.checkExact(name, r.Bound, st)
	case r.Kind == "deepen":
		err = ref.checkDeepen(name, r.Bound, st, res.FoundAt)
	case r.Kind == "prove":
		k := res.Bound
		if st == sebmc.Reachable {
			k = res.FoundAt
		}
		err = ref.checkProve(name, st, k)
	}
	if err != nil {
		return nil, nil, err
	}
	if st == sebmc.Reachable {
		t := time.Now()
		err = replayWitness(res.Witness, sys)
		witnessMS = append(witnessMS, ms(time.Since(t)))
		if err != nil {
			return witnessMS, nil, err
		}
	}
	if st == sebmc.Safe && res.Certificate != "" {
		t := time.Now()
		c, perr := sebmc.ParseCertificate(res.Certificate)
		if perr == nil {
			// Invariants are stated over the COI-reduced plain model.
			perr = c.Validate(sys.Reduce())
		}
		certMS = append(certMS, ms(time.Since(t)))
		if perr != nil {
			return witnessMS, certMS, fmt.Errorf("certificate does not validate: %w", perr)
		}
	}
	return witnessMS, certMS, nil
}

func statusOf(s string) (sebmc.Status, bool) {
	for _, st := range []sebmc.Status{sebmc.Reachable, sebmc.Unreachable, sebmc.Safe} {
		if s == st.String() {
			return st, true
		}
	}
	return sebmc.Unknown, false
}

// replayWitness validates a served trace. Depending on the engine that
// produced it, it is a trace of the model itself (bounded checks and
// linear deepening under exact-k), of its self-loop transform
// (k-induction's at-most-k base case) or of its cone-of-influence
// reduction (interpolation); each preserves reachability of the bad
// states, so a replay against any of them proves the counterexample.
func replayWitness(text string, sys *sebmc.System) error {
	if text == "" {
		return fmt.Errorf("REACHABLE without a witness")
	}
	w, err := sebmc.ParseWitness(text)
	if err != nil {
		return fmt.Errorf("witness does not parse: %w", err)
	}
	var errs []error
	for _, cand := range []*sebmc.System{sys, sebmc.AddSelfLoop(sys), sys.Reduce()} {
		err := w.Validate(cand)
		if err == nil {
			return nil
		}
		errs = append(errs, err)
	}
	return fmt.Errorf("witness does not replay: %w", errors.Join(errs...))
}

// metricsOf snapshots every shard's counters.
func metricsOf(c *zipfCluster) []service.MetricsSnapshot {
	out := make([]service.MetricsSnapshot, len(c.servers))
	for i, srv := range c.servers {
		out[i] = srv.Metrics()
	}
	return out
}

// zipfTrace is the traced run's instrumentation: a handler wrapper
// around each shard's Handler() timing /v1/check, and a client
// transport that tags each entry request with the request's index. The
// proxy forwards no client header, so a forwarded request's span is
// linked to its entry span by request body and time containment.
type zipfTrace struct {
	mu      sync.Mutex
	entries map[int]handlerSpan // by request index
	owners  []handlerSpan       // forwarded requests served by their owner
	// cost is the wrapper's own time outside the wrapped handler.
	cost time.Duration
}

type handlerSpan struct {
	shard      int
	start, end time.Time
	key        string // forwarded request identity
}

func (h handlerSpan) ms() float64 { return ms(h.end.Sub(h.start)) }

const (
	benchReqHeader = "X-Bmcbench-Request"
	// forwardHeader is the marker the service's proxy puts on a request
	// it routes to the owning shard.
	forwardHeader = "X-Bmcd-Forward"
)

type reqKey struct{}

func newZipfTrace() *zipfTrace { return &zipfTrace{entries: map[int]handlerSpan{}} }

func (z *zipfTrace) withRequest(ctx context.Context, i int) context.Context {
	return context.WithValue(ctx, reqKey{}, i)
}

// taggingTransport puts the request index carried by the context on the
// entry request.
type taggingTransport struct{ base *http.Transport }

func (t taggingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if i, ok := r.Context().Value(reqKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(benchReqHeader, fmt.Sprint(i))
	}
	return t.base.RoundTrip(r)
}

// wrap times every /v1/check a shard serves. Entry requests carry the
// benchmark's request index; forwarded ones carry the proxy's marker
// and are keyed by their body.
func (z *zipfTrace) wrap(shard int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/check" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		span := handlerSpan{shard: shard}
		id, err := -1, error(nil)
		if v := r.Header.Get(benchReqHeader); v != "" {
			_, err = fmt.Sscan(v, &id)
		} else if r.Header.Get(forwardHeader) != "" {
			var b []byte
			if b, err = io.ReadAll(r.Body); err == nil {
				r.Body = io.NopCloser(bytes.NewReader(b))
				var req service.CheckRequest
				if err = json.Unmarshal(b, &req); err == nil {
					span.key = forwardKey(req)
				}
			}
		}
		span.start = time.Now()
		h.ServeHTTP(w, r)
		span.end = time.Now()
		z.mu.Lock()
		switch {
		case err != nil:
			// Unattributable: the request is still served, not traced.
		case id >= 0:
			z.entries[id] = span
		case span.key != "":
			z.owners = append(z.owners, span)
		}
		z.cost += span.start.Sub(t0) + time.Since(span.end)
		z.mu.Unlock()
	})
}

// forwardKey is the identity a forwarded request is matched on.
func forwardKey(r service.CheckRequest) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, r.Model) // hash writes never fail
	return fmt.Sprintf("%x|%d|%s|%v|%v", h.Sum64(), r.Bound, r.Engine, r.Deepen, r.Prove)
}

// layers computes the per-layer metrics of a traced run.
func (z *zipfTrace) layers(rep *report, reqs []zipfRequest, samples []zipfSample, from int, before, after []service.MetricsSnapshot, corpus zipfCorpus) {
	z.mu.Lock()
	defer z.mu.Unlock()
	// Link each forwarded span to the entry span of a request with the
	// same body that contains it in time.
	byKey := map[string][]int{}
	for i, r := range reqs {
		k := forwardKey(r.checkRequest(corpus.texts[r.Model]))
		byKey[k] = append(byKey[k], i)
	}
	owner := map[int]handlerSpan{}
	sort.Slice(z.owners, func(a, b int) bool { return z.owners[a].start.Before(z.owners[b].start) })
	for _, o := range z.owners {
		for _, i := range byKey[o.key] {
			e, ok := z.entries[i]
			if _, taken := owner[i]; taken || !ok || e.shard == o.shard || o.start.Before(e.start) || e.end.Before(o.end) {
				continue
			}
			owner[i] = o
			break
		}
	}

	var hit, fresh, overhead, proxy, residual []float64
	for i := from; i < len(samples); i++ {
		s := samples[i]
		e, ok := z.entries[i]
		if !ok || s.res == nil {
			continue
		}
		residual = append(residual, s.latencyMS()-e.ms())
		serve := e
		if o, ok := owner[i]; ok {
			serve = o
			proxy = append(proxy, e.ms()-o.ms())
		}
		if s.res.Cached {
			hit = append(hit, serve.ms())
		} else {
			fresh = append(fresh, float64(s.res.ElapsedMS))
		}
		overhead = append(overhead, serve.ms()-float64(s.res.ElapsedMS))
	}
	setLayer(rep, "service.hit_ms", median(hit))
	setLayer(rep, "service.fresh_solve_ms", sum(fresh)/float64(max(1, len(fresh))))
	setLayer(rep, "service.overhead_ms", median(overhead))
	setLayer(rep, "cluster.proxy_ms", median(proxy))
	setLayer(rep, "trace.residual_ms", median(residual))
	// The wrapper's bookkeeping against all the handler time it wraps.
	var served float64
	for _, e := range z.entries {
		served += e.ms()
	}
	for _, o := range z.owners {
		served += o.ms()
	}
	setLayer(rep, "trace.overhead_frac", frac(ms(z.cost), served))

	var hits, misses, terminal, sessHits, sessMisses, skipped, proxied, replicated int64
	for i := range after {
		a, b := after[i], before[i]
		hits += a.Cache.Hits - b.Cache.Hits
		misses += a.Cache.Misses - b.Cache.Misses
		terminal += a.Cache.TerminalHits - b.Cache.TerminalHits
		sessHits += a.Sessions.Hits - b.Sessions.Hits
		sessMisses += a.Sessions.Misses - b.Sessions.Misses
		skipped += a.DeepenBoundsSkipped - b.DeepenBoundsSkipped
		if a.Cluster != nil && b.Cluster != nil {
			proxied += a.Cluster.Proxied - b.Cluster.Proxied
			replicated += a.Cluster.Replication.ReplicatedOut - b.Cluster.Replication.ReplicatedOut
		}
	}
	setLayer(rep, "cache.hit_frac", frac(float64(hits), float64(hits+misses)))
	setLayer(rep, "cache.terminal_hits", float64(terminal))
	setLayer(rep, "session.hit_frac", frac(float64(sessHits), float64(sessHits+sessMisses)))
	setLayer(rep, "session.misses", float64(sessMisses))
	setLayer(rep, "deepen.bounds_skipped", float64(skipped))
	setLayer(rep, "cluster.proxied_frac", frac(float64(proxied), float64(len(samples)-from)))
	setLayer(rep, "replication.out", float64(replicated))

	// Every request parses its model and hashes its cone of influence,
	// hits included. Those steps run inside the shard, out of the
	// wrapper's sight, so they are replayed here on the same inputs,
	// after the window, and reported per request.
	var parse, coi, hash time.Duration
	for _, r := range reqs[from:] {
		t0 := time.Now()
		sys, err := sebmc.LoadAIGER(strings.NewReader(corpus.texts[r.Model]), 0)
		t1 := time.Now()
		if err != nil {
			continue
		}
		sys.Reduce()
		t2 := time.Now()
		sebmc.ModelHash(sys) // reduces again, then serializes and hashes
		t3 := time.Now()
		parse, coi, hash = parse+t1.Sub(t0), coi+t2.Sub(t1), hash+max(0, t3.Sub(t2)-t2.Sub(t1))
	}
	nr := float64(max(1, len(reqs)-from))
	setLayer(rep, "aig.parse_ms", ms(parse)/nr)
	setLayer(rep, "model.coi_ms", ms(coi)/nr)
	setLayer(rep, "model.hash_ms", ms(hash)/nr)
	rep.notef("traced: %d entry spans, %d forwarded spans, %d linked", len(z.entries), len(z.owners), len(owner))
}
