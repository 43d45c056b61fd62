package service

// Cluster-mode tests, named TestServiceCluster* so CI's stress loop
// (-run TestService -count=3, under -race) covers them. The invariants:
// a routed request answers byte-identically to a direct one, redirect
// mode really 307s to the owner, batches fan out and merge in order, a
// drained shard's warm sessions re-home to the survivor, and a storm
// with a mid-storm drain loses no jobs and leaks no goroutines.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	sebmc "repro"
	"repro/internal/circuits"
	"repro/internal/explicit"
)

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// newTestCluster boots n servers, each behind its own httptest
// listener, and joins them into one cluster (the listener URLs double
// as shard IDs — JoinCluster happens after the listeners exist, same
// as bmcd's flag-driven startup). Cleanup drains every shard in order
// and asserts the goroutine count settles: the zero-leak discipline,
// now including gossip loops, proxy transports and migration.
func newTestCluster(t *testing.T, n int, mode string, cfg Config) ([]*Server, []string) {
	t.Helper()
	before := runtime.NumGoroutine()
	servers := make([]*Server, n)
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		servers[i] = New(cfg)
		tss[i] = httptest.NewServer(servers[i].Handler())
		urls[i] = tss[i].URL
	}
	for i, s := range servers {
		if err := s.JoinCluster(ClusterConfig{
			Self:           urls[i],
			Shards:         urls,
			Mode:           mode,
			GossipInterval: 50 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, s := range servers {
			drain(t, s)
		}
		http.DefaultClient.CloseIdleConnections()
		for _, ts := range tss {
			ts.Close()
		}
		settleGoroutines(t, before)
	})
	return servers, urls
}

// ownerIndex returns which shard owns the given model source, as the
// cluster itself computes it.
func ownerIndex(t *testing.T, servers []*Server, urls []string, src string) int {
	t.Helper()
	sys, err := loadModel(CheckRequest{Model: src})
	if err != nil {
		t.Fatal(err)
	}
	owner := servers[0].clusterView().ring.Owner(sebmc.ModelHash(sys))
	for i, u := range urls {
		if u == owner.ID {
			return i
		}
	}
	t.Fatalf("owner %s is not one of %v", owner.ID, urls)
	return -1
}

// normalized strips the fields that legitimately differ between a
// direct and a routed answer — where it ran and how warm it was —
// leaving everything the client actually consumes, Iterations and
// BoundsSkipped included.
func normalized(r *JobResult) JobResult {
	n := *r
	n.Cached = false
	n.SessionHit = false
	n.ElapsedMS = 0
	n.Conflicts = 0
	n.PeakBytes = 0
	return n
}

// TestServiceClusterRoutedEquivalence is the routing-table
// differential at the HTTP layer: the same request answered directly
// by a standalone server, by the owning shard, and via a non-owner
// entry shard (proxied) must agree on every result field a client
// consumes.
func TestServiceClusterRoutedEquivalence(t *testing.T) {
	cfg := Config{Workers: 2, QueueDepth: 32}
	_, direct := newTestServer(t, cfg)
	_, urls := newTestCluster(t, 2, ModeProxy, cfg)

	models := []string{
		cexMSL,
		safeMSL,
		aagSource(t, circuits.Counter(3, 5)),
		aagSource(t, circuits.TokenRing(4)),
		aagSource(t, circuits.TrafficLight(2)),
	}
	reqs := []CheckRequest{
		{Bound: 5, Engine: "sat", Witness: true},
		{Bound: 6, Engine: "sat-incr", Deepen: true, Witness: true},
		{Bound: 8, Engine: "sat-incr", Deepen: true, Schedule: "geometric"},
		{Bound: 4, Engine: "sat", Semantics: "atmost"},
	}
	for mi, model := range models {
		for ri, base := range reqs {
			req := base
			req.Model = model
			want := normalized(checkWait(t, direct, req))
			for si, u := range urls {
				got := normalized(checkWait(t, u, req))
				if got != want {
					t.Errorf("model %d req %d via shard %d: routed answer differs\n got: %+v\nwant: %+v",
						mi, ri, si, got, want)
				}
			}
		}
	}
}

// TestServiceClusterRedirect pins redirect mode's contract: a
// non-owner shard answers 307 with the owner in Location, and a stock
// net/http client follows it to a real result served by the owner.
func TestServiceClusterRedirect(t *testing.T) {
	servers, urls := newTestCluster(t, 2, ModeRedirect, Config{Workers: 1, QueueDepth: 8})
	owner := ownerIndex(t, servers, urls, cexMSL)
	entry := 1 - owner

	// Raw: the redirect itself.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	req := CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat", Wait: true}
	resp, err := noFollow.Post(urls[entry]+"/v1/check", "application/json", jsonBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("non-owner answered %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != urls[owner]+"/v1/check" {
		t.Fatalf("Location = %q, want %q", loc, urls[owner]+"/v1/check")
	}

	// Followed: POST bodies built from byte readers carry GetBody, so
	// net/http replays the 307 transparently and the owner answers.
	res := checkWait(t, urls[entry], req)
	if res.Status != "REACHABLE" {
		t.Fatalf("followed redirect answered %s, want REACHABLE", res.Status)
	}
	if m := servers[entry].Metrics(); m.Cluster == nil || m.Cluster.Redirected < 1 {
		t.Fatalf("entry shard counted no redirects: %+v", m.Cluster)
	}
	if m := servers[owner].Metrics(); m.Cluster == nil || m.Cluster.OwnedServed < 1 {
		t.Fatalf("owner shard counted no owned serves: %+v", m.Cluster)
	}
}

// TestServiceClusterBatchFanout: a mixed-owner batch posted at one
// shard is partitioned by owner, proxied, and merged back in
// submission order with correct verdicts.
func TestServiceClusterBatchFanout(t *testing.T) {
	servers, urls := newTestCluster(t, 2, ModeProxy, Config{Workers: 2, QueueDepth: 64})
	systems := []*sebmc.System{
		circuits.Counter(3, 5),
		circuits.CounterEnable(2, 2),
		circuits.TokenRing(4),
		circuits.TrafficLight(2),
		circuits.Counter(2, 3),
		circuits.TokenRing(3),
	}
	var jobs []CheckRequest
	var want []bool
	owners := make(map[int]bool)
	add := func(sys *sebmc.System) {
		src := aagSource(t, sys)
		jobs = append(jobs, CheckRequest{Model: src, Format: "aag", Bound: 6, Engine: "sat", Semantics: "atmost"})
		sc := explicit.New(sys).ShortestCounterexample()
		want = append(want, sc != -1 && sc <= 6)
		owners[ownerIndex(t, servers, urls, src)] = true
	}
	for _, sys := range systems {
		add(sys)
	}
	// Shard IDs are random listener ports, so the six models can all
	// land on one shard; add counters until both shards own an item.
	// Each added model joins the same shard with odds 1/2, so all 24
	// doing so is a 2^-24 event.
	for target := uint64(1); len(owners) < 2; target++ {
		if target > 24 {
			t.Fatal("30 models all hash to one shard")
		}
		add(circuits.Counter(5, target))
	}
	var br BatchResponse
	if code := postJSON(t, urls[0]+"/v1/batch", BatchRequest{Jobs: jobs}, &br); code != http.StatusOK {
		t.Fatalf("batch: HTTP %d", code)
	}
	if len(br.Results) != len(jobs) {
		t.Fatalf("batch: %d results for %d jobs", len(br.Results), len(jobs))
	}
	for i, res := range br.Results {
		if got := res.Status == "REACHABLE"; got != want[i] {
			t.Errorf("batch item %d: %s, oracle says reachable=%v", i, res.Status, want[i])
		}
	}
	m0 := servers[0].Metrics()
	m1 := servers[1].Metrics()
	if m0.Cluster.Proxied == 0 {
		t.Errorf("entry shard proxied no batch items: %+v", m0.Cluster)
	}
	if m1.Cluster.ForwardedIn == 0 {
		t.Errorf("peer shard saw no forwarded batch items: %+v", m1.Cluster)
	}
	if m0.Cluster.OwnedServed == 0 {
		t.Errorf("entry shard served none of its own items: %+v", m0.Cluster)
	}
}

// TestServiceClusterMigration: drain a shard holding a warm session
// with a proven prefix and prove the prefix re-homes — the survivor
// reports sessions_migrated_in, and a deeper request routed to it
// resumes on the adopted session (session_hit, bounds skipped) instead
// of starting cold.
func TestServiceClusterMigration(t *testing.T) {
	servers, urls := newTestCluster(t, 2, ModeProxy, Config{Workers: 2, QueueDepth: 16})
	safeSrc := aagSource(t, circuits.Counter(3, 7)) // reaches 7 only at step 7, beyond every bound used here
	owner := ownerIndex(t, servers, urls, safeSrc)
	survivor := 1 - owner

	// Warm the owner: a deepen builds a sat-incr session with a proven
	// prefix 0..4.
	first := checkWait(t, urls[owner], CheckRequest{Model: safeSrc, Format: "aag", Bound: 4, Engine: "sat-incr", Deepen: true})
	if first.Status != "UNREACHABLE" {
		t.Fatalf("warmup deepen: %s, want UNREACHABLE", first.Status)
	}

	// Drain the owner: its warm session must hand over to the survivor.
	drain(t, servers[owner])
	mo := servers[owner].Metrics()
	if mo.Cluster.MigratedOut < 1 {
		t.Fatalf("drained owner migrated nothing out: %+v", mo.Cluster)
	}
	ms := servers[survivor].Metrics()
	if ms.Cluster.MigratedIn < 1 {
		t.Fatalf("survivor adopted nothing: %+v", ms.Cluster)
	}

	// A deeper request for the key now lands on the survivor (the owner
	// is draining: either gossip has noticed or the proxy bounce sheds
	// it) and resumes on the adopted session.
	deeper := checkWait(t, urls[survivor], CheckRequest{Model: safeSrc, Format: "aag", Bound: 6, Engine: "sat-incr", Deepen: true})
	if deeper.Status != "UNREACHABLE" {
		t.Fatalf("post-migration deepen: %s, want UNREACHABLE", deeper.Status)
	}
	if !deeper.SessionHit {
		t.Fatal("post-migration deepen started cold: the migrated session was not resumed")
	}
	if deeper.BoundsSkipped < 5 {
		t.Fatalf("post-migration deepen skipped %d bounds, want >= 5 (the migrated proven prefix 0..4)", deeper.BoundsSkipped)
	}
}

// TestServiceClusterDrainStorm: a concurrent storm across both shards
// with a mid-storm drain of one. Every response must be a correct
// verdict, a contained failure, or a 503 — no lost jobs, no wrong
// answers — and the survivor keeps serving the whole keyspace.
func TestServiceClusterDrainStorm(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("cluster storm seed %d", seed)
	servers, urls := newTestCluster(t, 2, ModeProxy, Config{Workers: 2, QueueDepth: 64, MaxTimeout: 2 * time.Second})

	systems := []*sebmc.System{
		circuits.Counter(3, 5),
		circuits.CounterEnable(2, 2),
		circuits.TokenRing(4),
		circuits.TrafficLight(2),
	}
	srcs := make([]string, len(systems))
	shortest := make([]int, len(systems))
	exact := make([][]bool, len(systems))
	for i, sys := range systems {
		srcs[i] = aagSource(t, sys)
		oracle := explicit.New(sys)
		shortest[i] = oracle.ShortestCounterexample()
		exact[i] = make([]bool, 7)
		for k := range exact[i] {
			exact[i][k] = oracle.ReachableExact(k)
		}
	}

	const stormWorkers = 6
	const stormRequests = 90
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < stormWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := range work {
				si := rng.Intn(len(systems))
				req := CheckRequest{
					Model:  srcs[si],
					Format: "aag",
					Bound:  rng.Intn(7),
					Engine: []string{"sat", "sat-incr"}[rng.Intn(2)],
					Wait:   true,
				}
				if rng.Intn(3) == 0 {
					req.Deepen = true
				}
				// After the drain begins, the drained shard sheds to the
				// survivor; before it, both entries work. Spray both.
				url := urls[i%2]
				var st jobStatus
				code := postJSON(t, url+"/v1/check", req, &st)
				chaosVerify(t, req, code, st.Result, exact[si], shortest[si])
			}
		}(w)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < stormRequests; i++ {
			work <- i
			if i == stormRequests/3 {
				drain(t, servers[1]) // mid-storm: shard 1 goes away
			}
		}
		close(work)
	}()
	<-done
	wg.Wait()

	// The survivor took over shard 1's keyspace: it served keys as their
	// owner or shed past the drained shard (which of the two depends on
	// where the storm models hash — shard IDs are random httptest ports,
	// so a run where one shard owns every model is legitimate), and its
	// health endpoint still answers.
	m0 := servers[0].Metrics()
	if m0.Cluster.OwnedServed+m0.Cluster.ShedServed == 0 {
		t.Errorf("survivor served nothing after the drain: %+v", m0.Cluster)
	}
	var hb healthBody
	if code := getJSON(t, urls[0]+"/healthz", &hb); code != http.StatusOK {
		t.Errorf("survivor healthz: HTTP %d", code)
	}
	t.Logf("storm: shard0 owned=%d shed=%d fwd_in=%d proxied=%d; shard1 migrated_out=%d",
		m0.Cluster.OwnedServed, m0.Cluster.ShedServed, m0.Cluster.ForwardedIn, m0.Cluster.Proxied,
		servers[1].Metrics().Cluster.MigratedOut)
}
