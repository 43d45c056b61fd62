package service

// Warm-failover tests, named TestServiceCluster* so CI's race loop
// covers them. The invariants: a verdict decided on one shard survives
// a kill -9 of that shard (the failover owner answers it warm, from
// replication, without a new solver invocation); a verdict bound for a
// dead peer parks as a hint and drains the moment gossip sees the peer
// back; divergent verdict caches converge through anti-entropy within
// two gossip intervals of the heal; a slow primary is hedged to the
// next preference; and a proxied deadline clamps the receiver's
// solving budget.

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	sebmc "repro"
	"repro/internal/circuits"
	"repro/internal/cluster"
	"repro/internal/explicit"
)

// newFailoverCluster is newTestCluster with the listeners exposed, so
// failover tests can kill a shard's listener abruptly — the HTTP-layer
// equivalent of kill -9: no drain, no migration, connections die
// mid-flight. Cleanup still drains every Server (the process objects
// survive their listeners) and asserts the goroutine count settles;
// httptest.Server.Close is idempotent, so a shard killed mid-test is
// fine to close again.
func newFailoverCluster(t *testing.T, n int, cfg Config, cc ClusterConfig) ([]*Server, []string, []*httptest.Server) {
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
		c := cc
		c.Self = urls[i]
		c.Shards = urls
		if c.Mode == "" {
			c.Mode = ModeProxy
		}
		if c.GossipInterval == 0 {
			c.GossipInterval = 50 * time.Millisecond
		}
		if err := s.JoinCluster(c); err != nil {
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
	return servers, urls, tss
}

// digestsEqual compares two shards' verdict-cache digests range by
// range.
func digestsEqual(a, b []cluster.RangeDigest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replSnap fetches one shard's replication metrics.
func replSnap(t *testing.T, s *Server) ReplicationSnapshot {
	t.Helper()
	m := s.Metrics()
	if m.Cluster == nil {
		t.Fatal("unclustered metrics snapshot")
	}
	return m.Cluster.Replication
}

// waitFor polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkWaitShard is checkWait, capturing which shard answered.
func checkWaitShard(t *testing.T, base string, req CheckRequest) (*JobResult, string) {
	t.Helper()
	req.Wait = true
	resp, err := http.Post(base+"/v1/check", "application/json", jsonBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait submit: HTTP %d", resp.StatusCode)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Result == nil {
		t.Fatalf("wait submit came back %q without a result", st.State)
	}
	return st.Result, resp.Header.Get(shardHeader)
}

// TestServiceClusterWarmFailover is the cold-failover regression the
// replication layer exists to fix: decide a verdict on its owner, kill
// the owner with no drain and no migration, and the survivor must
// answer the same request warm — as a cache hit fed by write-behind
// replication, with no new solver invocation. Before replication this
// answered cold (Cached=false after a full re-solve). Each input runs
// on a fresh cluster, and the survivor's answer must equal the owner's
// on every field but how it was served, so a field the wire drops
// fails here: between them the inputs carry a witness, iterations and
// bounds_skipped, and a terminal validated certificate.
func TestServiceClusterWarmFailover(t *testing.T) {
	deepMSL := `
model deep
var c : 6 = 0;
next c = c + 1;
bad c == 40;
`
	for _, tc := range []struct {
		name string
		req  CheckRequest
		want func(*JobResult) bool
	}{
		{"sat", CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat", Witness: true},
			func(r *JobResult) bool { return r.Status == "REACHABLE" && r.WitnessValidated }},
		{"sat-incr-deepen", CheckRequest{Model: deepMSL, Bound: 64, Engine: "sat-incr", Deepen: true, Schedule: "geometric", Witness: true},
			func(r *JobResult) bool { return r.Status == "REACHABLE" && r.Iterations > 0 && r.BoundsSkipped > 0 }},
		{"interp-certificate", CheckRequest{Model: safeMSL, Bound: 4, Engine: "interp", Certificate: true},
			func(r *JobResult) bool {
				return r.Status == "SAFE" && r.Terminal && r.CertificateValidated && r.Certificate != ""
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			servers, urls, tss := newFailoverCluster(t, 2, Config{Workers: 2, QueueDepth: 16}, ClusterConfig{})
			owner := ownerIndex(t, servers, urls, tc.req.Model)
			survivor := 1 - owner

			res := checkWait(t, urls[owner], tc.req)
			if !tc.want(res) {
				t.Fatalf("owner verdict: %+v", res)
			}
			// The write-behind replica lands on the survivor off the
			// request path; wait for it (the witness or certificate is
			// replay-validated on receipt).
			waitUntil(t, 5*time.Second, "replica to reach the survivor", func() bool {
				return replSnap(t, servers[survivor]).ReplicatedIn >= 1
			})

			// kill -9: the owner's listener dies mid-cluster, taking its
			// live connections with it. No drain, no migration runs.
			tss[owner].CloseClientConnections()
			tss[owner].Close()

			// The same request at the survivor: the proxy walk bounces off
			// the dead owner and serves locally — warm, from the
			// replicated verdict.
			got, shard := checkWaitShard(t, urls[survivor], tc.req)
			if shard != urls[survivor] {
				t.Fatalf("answered by %q, want the survivor %q", shard, urls[survivor])
			}
			if !got.Cached {
				t.Fatal("survivor re-solved the model: the replicated verdict was not served as a cache hit")
			}
			want, have := *res, *got
			for _, r := range []*JobResult{&want, &have} {
				r.Cached, r.SessionHit, r.ElapsedMS = false, false, 0
			}
			if have != want {
				t.Fatalf("failover answer differs from the owner's:\n got  %+v\n want %+v", have, want)
			}
		})
	}
}

// TestServiceClusterHintedHandoff: a replica bound for a dead peer
// parks in the hint log instead of vanishing, and drains the moment a
// gossip poll sees the peer back — the rebooted shard receives the
// verdicts it missed without waiting for anti-entropy.
func TestServiceClusterHintedHandoff(t *testing.T) {
	servers, urls, tss := newFailoverCluster(t, 2, Config{Workers: 2, QueueDepth: 16}, ClusterConfig{})
	owner := ownerIndex(t, servers, urls, cexMSL)
	dead := 1 - owner

	// Kill the failover target first, then decide the verdict on the
	// owner: the replica has nowhere to go and must park.
	tss[dead].CloseClientConnections()
	tss[dead].Close()
	res := checkWait(t, urls[owner], CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat", Witness: true})
	if res.Status != "REACHABLE" {
		t.Fatalf("owner verdict: %s, want REACHABLE", res.Status)
	}
	waitUntil(t, 5*time.Second, "replica to park as a hint", func() bool {
		return replSnap(t, servers[owner]).HintsQueued >= 1
	})

	// Revive the peer on the SAME address (Go listeners set
	// SO_REUSEADDR, so the port rebinds through TIME_WAIT): the next
	// gossip poll succeeds and the hints must drain to it.
	addr := strings.TrimPrefix(urls[dead], "http://")
	var l net.Listener
	waitUntil(t, 5*time.Second, "the dead shard's port to rebind", func() bool {
		var err error
		l, err = net.Listen("tcp", addr)
		return err == nil
	})
	revived := &httptest.Server{Listener: l, Config: &http.Server{Handler: servers[dead].Handler()}}
	revived.Start()
	t.Cleanup(revived.Close)

	waitUntil(t, 5*time.Second, "hints to drain to the revived peer", func() bool {
		return replSnap(t, servers[owner]).HintsDrained >= 1
	})
	if in := replSnap(t, servers[dead]).ReplicatedIn; in < 1 {
		t.Fatalf("revived peer adopted %d entries, want >= 1", in)
	}
	if parked := servers[owner].clusterView().repl.parked(); parked != 0 {
		t.Fatalf("%d hints still parked after the drain", parked)
	}

	// The handed-off verdict is really resident: a forwarded request
	// (served locally by contract) answers it as a cache hit.
	req := CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat", Witness: true, Wait: true}
	hreq, err := http.NewRequest(http.MethodPost, urls[dead]+"/v1/check", jsonBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(forwardHeader, urls[owner])
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Result == nil || !st.Result.Cached {
		t.Fatalf("revived peer did not serve the handed-off verdict warm: %+v", st.Result)
	}
}

// TestServiceClusterAntiEntropyRepair pins the convergence bound: two
// shards whose verdict caches diverged while apart (here: one decided
// verdicts before the cluster formed) must agree — equal cache digests
// — within two gossip intervals of the heal, via repair pulls.
func TestServiceClusterAntiEntropyRepair(t *testing.T) {
	const interval = 250 * time.Millisecond
	before := runtime.NumGoroutine()
	cfg := Config{Workers: 2, QueueDepth: 16}
	servers := []*Server{New(cfg), New(cfg)}
	tss := []*httptest.Server{
		httptest.NewServer(servers[0].Handler()),
		httptest.NewServer(servers[1].Handler()),
	}
	urls := []string{tss[0].URL, tss[1].URL}
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

	// Diverge before the cluster exists: shard 0 decides verdicts alone
	// (unclustered, so nothing replicates) — the state of a shard that
	// kept serving through a partition.
	fills := []CheckRequest{
		{Model: cexMSL, Bound: 5, Engine: "sat", Witness: true},
		{Model: safeMSL, Bound: 6, Engine: "sat-incr", Deepen: true},
		{Model: aagSource(t, circuits.Counter(3, 5)), Format: "aag", Bound: 6, Engine: "sat"},
	}
	for _, req := range fills {
		checkWait(t, urls[0], req)
	}

	// Heal: both shards join. Gossip carries the cache digests; shard 1
	// sees ranges it lacks and pulls them.
	for i, s := range servers {
		if err := s.JoinCluster(ClusterConfig{
			Self:           urls[i],
			Shards:         urls,
			Mode:           ModeProxy,
			GossipInterval: interval,
		}); err != nil {
			t.Fatal(err)
		}
	}
	healed := time.Now()
	waitUntil(t, 2*interval, "cache digests to converge", func() bool {
		return digestsEqual(servers[0].cache.digest(), servers[1].cache.digest())
	})
	t.Logf("anti-entropy converged in %v (gossip interval %v)", time.Since(healed), interval)

	rs := replSnap(t, servers[1])
	if rs.RepairPulls < 1 || rs.RepairedEntries < int64(len(fills)) {
		t.Fatalf("repair accounting: pulls=%d repaired=%d, want >=1/%d", rs.RepairPulls, rs.RepairedEntries, len(fills))
	}
	// Quiescence: once converged, further gossip rounds must not keep
	// pulling — the digests agree, so no new repair traffic.
	pulls := rs.RepairPulls
	time.Sleep(3 * interval)
	if after := replSnap(t, servers[1]).RepairPulls; after != pulls {
		t.Fatalf("anti-entropy did not quiesce: %d pulls grew to %d after convergence", pulls, after)
	}
}

// TestServiceClusterHedgedFailover: a primary that accepts the proxied
// request but answers slower than its own advertised p99 gets hedged —
// the same request is duplicated to the next preference, the fast
// answer wins, and the client never sees the stall. The slow shard
// here is a stand-in listener that gossips health (with a tiny p99, so
// the hedge fires fast) but sits on /v1/check until cancelled.
func TestServiceClusterHedgedFailover(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := Config{Workers: 2, QueueDepth: 16}
	servers := []*Server{New(cfg), New(cfg)}
	tss := []*httptest.Server{
		httptest.NewServer(servers[0].Handler()),
		httptest.NewServer(servers[1].Handler()),
	}

	// The slow shard: healthy by gossip, black hole for checks. The
	// stall channel releases any still-held request at cleanup, so the
	// listener can close without waiting out the stall.
	stall := make(chan struct{})
	mux := http.NewServeMux()
	slow := httptest.NewServer(mux)
	mux.HandleFunc("GET /v1/cluster/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, cluster.Status{ID: slow.URL, QueueCapacity: 16, P99JobMicros: 2000})
	})
	mux.HandleFunc("POST /v1/check", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // abandoned by the hedging proxy
		case <-stall:
		}
	})

	urls := []string{tss[0].URL, tss[1].URL, slow.URL}
	for i, s := range servers {
		if err := s.JoinCluster(ClusterConfig{
			Self:           urls[i],
			Shards:         urls,
			Mode:           ModeProxy,
			GossipInterval: 50 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, s := range servers {
			drain(t, s)
		}
		close(stall)
		http.DefaultClient.CloseIdleConnections()
		tss[0].Close()
		tss[1].Close()
		slow.Close()
		settleGoroutines(t, before)
	})

	// Find a model the slow shard owns whose preference order ends at a
	// real shard: that shard is the entry, the other real shard is the
	// hedge target. Rendezvous order is hash-driven, so scan a pool.
	ring := servers[0].clusterView().ring
	var src string
	var entry, hedged int
	var reachable bool
	pool := []*sebmc.System{}
	for n := 3; n <= 10; n++ {
		pool = append(pool, circuits.TokenRing(n))
	}
	for n := 2; n <= 4; n++ {
		for tgt := uint64(2); tgt <= 5; tgt++ {
			pool = append(pool, circuits.Counter(n, tgt))
		}
	}
	for _, sys := range pool {
		prefs := ring.Prefs(sebmc.ModelHash(sys))
		if prefs[0].ID != slow.URL {
			continue
		}
		src = aagSource(t, sys)
		for i, u := range urls[:2] {
			switch u {
			case prefs[1].ID:
				hedged = i
			case prefs[2].ID:
				entry = i
			}
		}
		sc := explicit.New(sys).ShortestCounterexample()
		reachable = sc != -1 && sc <= 4
		break
	}
	if src == "" {
		t.Skip("no model in the pool is owned by the slow shard; enlarge the pool")
	}

	// Let the entry shard hear the slow shard's advertised p99 once, so
	// the hedge delay is the 50ms clamp, not the 500ms default.
	waitUntil(t, 2*time.Second, "gossip to hear the slow shard", func() bool {
		st, ok := servers[entry].clusterView().tracker.Status(slow.URL)
		return ok && st.P99JobMicros > 0
	})

	req := CheckRequest{Model: src, Format: "aag", Bound: 4, Engine: "sat", Semantics: "atmost"}
	res, shard := checkWaitShard(t, urls[entry], req)
	if got := res.Status == "REACHABLE"; got != reachable {
		t.Fatalf("hedged answer %s, oracle says reachable=%v", res.Status, reachable)
	}
	if shard != urls[hedged] {
		t.Fatalf("answered by %q, want the hedge target %q", shard, urls[hedged])
	}
	rs := replSnap(t, servers[entry])
	if rs.HedgesFired < 1 || rs.HedgesWon < 1 {
		t.Fatalf("hedge accounting: fired=%d won=%d, want >=1/>=1", rs.HedgesFired, rs.HedgesWon)
	}
}

// TestServiceClusterDeadlineClamp: a request arriving with a peer's
// remaining-budget header gets its solving budget clamped to it, even
// when the request itself asked for no timeout — the receiver half of
// deadline propagation (the sender half, stamping the header from its
// own deadline, is startAttempt).
func TestServiceClusterDeadlineClamp(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})

	// ParityGuard at this bound runs far past the deadline under jsat;
	// the clamp must cut it off as a timeout.
	req := CheckRequest{Model: aagSource(t, circuits.ParityGuard(10)), Format: "aag", Bound: 8, Engine: "jsat", Wait: true}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/check", jsonBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(deadlineHeader, "60")
	start := time.Now()
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("clamped request took %v, the deadline header was ignored", elapsed)
	}
	if st.Result == nil || st.Result.Status != "UNKNOWN" {
		t.Fatalf("clamped run: %+v, want UNKNOWN", st.Result)
	}
	if m := s.Metrics(); m.TimedOut < 1 {
		t.Fatalf("clamp did not register as a timeout: timed_out=%d", m.TimedOut)
	}

	// A header LOOSER than the request's own budget must not extend it:
	// the clamp only ever shrinks.
	req.TimeoutMS = 50
	hreq, err = http.NewRequest(http.MethodPost, url+"/v1/check", jsonBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(deadlineHeader, "60000")
	start = time.Now()
	resp2, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	st = jobStatus{}
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("60s deadline header extended a 50ms budget (took %v)", elapsed)
	}
	if st.Result == nil || st.Result.Status != "UNKNOWN" {
		t.Fatalf("budgeted run under a loose header: %+v, want UNKNOWN", st.Result)
	}
}

// TestServiceReplicaAdoptRejects: the replication receiver's validation
// gauntlet. A good entry is adopted once (idempotently); entries with a
// mismatched content hash, an unreplayable or missing witness, an
// undecided status, an error, a non-terminal answer under the terminal
// key, or an unvalidated repair witness are all refused, and a payload naming an unknown engine is a 400 that adopts
// nothing.
func TestServiceReplicaAdoptRejects(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 2})
	// Decide a real verdict to harvest a genuine model + witness pair.
	res := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat", Witness: true})
	if res.Status != "REACHABLE" || res.Witness == "" {
		t.Fatalf("harvest run: %s witness=%q", res.Status, res.Witness)
	}
	sys, err := loadModel(CheckRequest{Model: cexMSL})
	if err != nil {
		t.Fatal(err)
	}
	good := replicaEntry{
		Key: verdictKey{
			sessionKey: sessionKey{Hash: sebmc.ModelHash(sys), Engine: sebmc.EngineSAT},
			Bound:      7, // a key the harvest run did not fill
		},
		Result: JobResult{Status: "REACHABLE", Bound: 7, FoundAt: 5, Witness: res.Witness},
		Model:  aagSource(t, sys),
	}
	if err := s.adoptReplica(good, true); err != nil {
		t.Fatalf("valid entry refused: %v", err)
	}
	if !s.cache.has(good.Key) {
		t.Fatal("adopted entry is not resident")
	}
	if err := s.adoptReplica(good, true); err != nil {
		t.Fatalf("idempotent re-adopt refused: %v", err)
	}

	cases := []struct {
		name string
		mut  func(e *replicaEntry)
		with bool
	}{
		{"hash mismatch", func(e *replicaEntry) { e.Key.Hash = strings.Repeat("0", len(e.Key.Hash)) }, true},
		{"corrupt witness", func(e *replicaEntry) { e.Result.Witness = "frame  0: state=111 inputs=\n" }, true},
		// Widths that match neither the plain system nor its self-loop
		// transform must come back as a rejection, not an evaluator
		// panic escaping the handler.
		{"wrong-width witness", func(e *replicaEntry) {
			e.Result.Witness = strings.ReplaceAll(e.Result.Witness, "state=", "state=0")
		}, true},
		{"undecided status", func(e *replicaEntry) { e.Result.Status = "UNKNOWN" }, true},
		{"missing model", func(e *replicaEntry) { e.Model = "" }, true},
		{"unvalidated repair witness", func(e *replicaEntry) { e.Model = ""; e.Result.WitnessValidated = false }, false},
		// A REACHABLE answer is checkable only through its trace: without
		// one it is refused on push and on repair, whatever it claims.
		{"reachable without witness", func(e *replicaEntry) { e.Result.Witness = "" }, true},
		{"reachable without witness on repair", func(e *replicaEntry) {
			e.Model = ""
			e.Result.Witness = ""
			e.Result.WitnessValidated = true
		}, false},
		{"result carries an error", func(e *replicaEntry) { e.Result.Error = "witness failed replay" }, true},
		// The bound-free terminal key answers every bound of the model:
		// only a terminal SAFE may be filed there.
		{"reachable under the terminal key", func(e *replicaEntry) { e.Key = terminalKey(e.Key.Hash) }, true},
		{"unreachable under the terminal key", func(e *replicaEntry) {
			e.Key = terminalKey(e.Key.Hash)
			e.Result = JobResult{Status: "UNREACHABLE", Bound: 9, FoundAt: -1}
		}, true},
	}
	for _, c := range cases {
		e := good
		e.Key.Bound = 9 // fresh key, so residency can't mask a rejection
		c.mut(&e)
		if err := s.adoptReplica(e, c.with); err == nil {
			t.Errorf("%s: entry adopted, want rejection", c.name)
		}
		if s.cache.has(e.Key) {
			t.Errorf("%s: rejected entry is resident", c.name)
		}
	}

	// An unknown engine name fails the key's decoding: the whole
	// payload is a 400, and its valid first entry is not adopted either.
	valid := good
	valid.Key.Bound = 15
	raw, err := json.Marshal(valid)
	if err != nil {
		t.Fatal(err)
	}
	divination := strings.Replace(string(raw), `"engine":"sat"`, `"engine":"divination"`, 1)
	if divination == string(raw) {
		t.Fatalf("entry JSON names no sat engine: %s", raw)
	}
	body := `{"entries":[` + string(raw) + `,` + divination + `]}`
	resp, err := http.Post(url+"/v1/cluster/replicate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad engine: HTTP %d, want 400", resp.StatusCode)
	}
	if s.cache.has(valid.Key) {
		t.Fatal("bad engine: a payload answered 400 still adopted an entry")
	}

	// A peer still on the flat pre-nested entry shape is refused entry
	// by entry, not with a 400: its fields decode to an empty key.
	flat := `{"entries":[{"hash":"` + good.Key.Hash + `","bound":17,"engine":"sat","semantics":"exact","schedule":"linear",` +
		`"status":"REACHABLE","found_at":5,"witness_validated":true,"result_bound":17}]}`
	var rr replicateResponse
	if code := postJSON(t, url+"/v1/cluster/replicate", json.RawMessage(flat), &rr); code != http.StatusOK || rr.Accepted != 0 {
		t.Fatalf("flat entry: HTTP %d accepted %d, want 200 accepted 0", code, rr.Accepted)
	}

	// The repair path's positive case: no model attached, but the
	// witness was validated by the shard it came from — adoptable.
	repair := good
	repair.Key.Bound = 11
	repair.Model = ""
	repair.Result.WitnessValidated = true
	if err := s.adoptReplica(repair, false); err != nil {
		t.Fatalf("validated repair entry refused: %v", err)
	}

	// An at-most-k witness carries one extra input per frame (the
	// self-loop selector) and replays against the transform, not the
	// plain shipped model — the receiver must adopt it, not reject or
	// panic on the width difference.
	am := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 6, Engine: "sat", Semantics: "atmost", Witness: true})
	if am.Status != "REACHABLE" || am.Witness == "" {
		t.Fatalf("atmost harvest run: %s witness=%q", am.Status, am.Witness)
	}
	atmost := good
	atmost.Key.Bound, atmost.Result.Bound = 13, 13
	atmost.Key.Sem = sebmc.AtMost
	atmost.Result.FoundAt = am.FoundAt
	atmost.Result.Witness = am.Witness
	if err := s.adoptReplica(atmost, true); err != nil {
		t.Fatalf("at-most witness entry refused: %v", err)
	}
}
