package service

// Cluster mode: the routing layer that turns N independent bmcd
// processes into one sharded service. Every shard is configured with
// the same shard list and computes the same rendezvous-hash owner for
// every model (internal/cluster), so a model's warm session and cached
// verdicts live on exactly one shard no matter which shard the client
// happened to hit:
//
//   - a request for a model this shard owns is served locally;
//   - a request for a model another shard owns is proxied there (the
//     default) or answered with a 307 redirect (-cluster-mode
//     redirect), so the client re-posts straight to the owner;
//   - /v1/batch is fanned out shard-aware: items are partitioned by
//     owner, each partition is proxied to its shard, and the merged
//     results come back in submission order;
//   - shards poll each other's GET /v1/cluster/health on a gossip
//     interval; a shard that is down, draining, stale or saturated is
//     skipped and its keys shed to the next rendezvous preference —
//     the PR-7 "degrade, don't fail" ladder generalized from "back
//     off" to "go somewhere that can take the work";
//   - on drain, a shard serializes each warm session's proven-prefix
//     state and hands it to the key's next owner (POST
//     /v1/cluster/migrate), so a rolling restart re-homes warm state
//     instead of going cold.
//
// Loop safety: a forwarded request carries X-Bmcd-Forward and is
// always served locally by the receiving shard, so disagreeing shard
// lists can cost locality but never an infinite proxy loop.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	sebmc "repro"
	"repro/internal/cluster"
)

// forwardHeader marks a request already routed by a peer shard: the
// receiver serves it locally, whatever its own ring says.
const forwardHeader = "X-Bmcd-Forward"

// shardHeader names the shard that answered, on every response of a
// clustered server — what lets a client (and the CI smoke test) see
// where a request actually landed.
const shardHeader = "X-Bmcd-Shard"

// deadlineHeader carries the client's remaining budget (milliseconds)
// on a proxied request. The receiver clamps its solving budget to it,
// and the proxy clamps its own retry walk to it, so a slow peer can
// never stall a request past the client's own deadline.
const deadlineHeader = "X-Bmcd-Deadline-Ms"

// ClusterConfig joins a server to a sharded deployment. Every shard
// must be configured with the same Shards list (order does not matter,
// content does): ownership is computed independently on each shard and
// is only coherent when the lists agree. Warm failover — verdict
// write-behind, hinted handoff and anti-entropy repair (replication.go)
// — is always on, with fixed bounds: a 1024-entry replication queue and
// a 512-entry hint log per peer.
type ClusterConfig struct {
	// Self is this shard's advertised base URL; it must appear in
	// Shards.
	Self string
	// Shards is the full shard list, Self included.
	Shards []string
	// Mode is "proxy" (default: non-owned requests are forwarded
	// server-side) or "redirect" (non-owned /v1/check gets a 307 to the
	// owner; batches are always proxied — their items have many
	// owners).
	Mode string
	// GossipInterval is the peer health poll period (0 = 1s).
	GossipInterval time.Duration
}

const (
	// ModeProxy forwards non-owned requests server-side.
	ModeProxy = "proxy"
	// ModeRedirect answers non-owned checks with 307 to the owner.
	ModeRedirect = "redirect"
)

// clusterState is the live routing state of a joined shard.
type clusterState struct {
	self     cluster.Shard
	ring     *cluster.Ring
	peers    []cluster.Shard // ring minus self
	mode     string
	interval time.Duration
	tracker  *cluster.Tracker
	client   *http.Client // gossip, proxy, migration and replication transport
	repl     *replicator  // warm-failover machinery

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// JoinCluster joins the server to a sharded deployment and starts the
// gossip loop. Call once, before serving traffic; Drain stops the
// gossip and migrates warm sessions to the surviving shards.
func (s *Server) JoinCluster(cc ClusterConfig) error {
	if len(cc.Shards) == 0 {
		return fmt.Errorf("service: cluster with no shards")
	}
	shards := make([]cluster.Shard, len(cc.Shards))
	for i, u := range cc.Shards {
		u = strings.TrimRight(u, "/")
		shards[i] = cluster.Shard{ID: u, URL: u}
	}
	ring, err := cluster.NewRing(shards)
	if err != nil {
		return err
	}
	self := strings.TrimRight(cc.Self, "/")
	var selfShard *cluster.Shard
	var peers []cluster.Shard
	for i := range shards {
		if shards[i].ID == self {
			selfShard = &shards[i]
		} else {
			peers = append(peers, shards[i])
		}
	}
	if selfShard == nil {
		return fmt.Errorf("service: self %q is not in the shard list %v", cc.Self, cc.Shards)
	}
	mode := cc.Mode
	if mode == "" {
		mode = ModeProxy
	}
	if mode != ModeProxy && mode != ModeRedirect {
		return fmt.Errorf("service: unknown cluster mode %q (want proxy or redirect)", cc.Mode)
	}
	interval := cc.GossipInterval
	if interval <= 0 {
		interval = time.Second
	}
	cs := &clusterState{
		self:     *selfShard,
		ring:     ring,
		peers:    peers,
		mode:     mode,
		interval: interval,
		// Statuses stale after three missed polls; a failed poll or a
		// bounced proxy demotes immediately, without waiting for TTL.
		tracker: cluster.NewTracker(3 * interval),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
		stop:    make(chan struct{}),
	}
	cs.repl = newReplicator(s, cs)
	if !s.cluster.CompareAndSwap(nil, cs) {
		return fmt.Errorf("service: already joined a cluster")
	}
	cs.wg.Add(2)
	go cs.gossipLoop()
	go cs.repl.loop()
	return nil
}

// clusterStop ends the gossip loop and closes the routing transport's
// idle connections. Idempotent.
func (cs *clusterState) clusterStop() {
	cs.stopOnce.Do(func() { close(cs.stop) })
	cs.wg.Wait()
	cs.client.CloseIdleConnections()
}

// gossipLoop polls every peer's /v1/cluster/health once per interval.
// One poll round runs concurrently across peers and is joined before
// the next tick is considered, so a slow peer delays gossip, never
// stacks it. The warm-failover follow-ups ride each round: hints drain
// to peers the round just heard from, and cache-digest disagreements
// trigger anti-entropy repair pulls — so convergence after a partition
// heal is bounded by gossip intervals, not by traffic.
func (cs *clusterState) gossipLoop() {
	defer cs.wg.Done()
	t := time.NewTicker(cs.interval)
	defer t.Stop()
	for {
		for _, p := range cs.pollPeers() {
			if !p.ok {
				continue
			}
			cs.repl.drainHints(p.shard)
			cs.repl.antiEntropy(p.shard, p.st)
		}
		select {
		case <-cs.stop:
			return
		case <-t.C:
		}
	}
}

// polledPeer is one peer's outcome from a poll round.
type polledPeer struct {
	shard cluster.Shard
	st    cluster.Status
	ok    bool
}

func (cs *clusterState) pollPeers() []polledPeer {
	out := make([]polledPeer, len(cs.peers))
	var wg sync.WaitGroup
	for i, sh := range cs.peers {
		wg.Add(1)
		go func(i int, sh cluster.Shard) {
			defer wg.Done()
			out[i].shard = sh
			ctx, cancel := context.WithTimeout(context.Background(), cs.interval)
			defer cancel()
			// A failed poll is a strike, not a verdict: the tracker
			// demotes only on two consecutive failures (hysteresis), so
			// one poll lost under load does not flap the peer down and
			// trigger a shed-and-hint storm.
			var st cluster.Status
			if cs.peerJSON(ctx, http.MethodGet, sh.URL+"/v1/cluster/health", nil, &st) != nil {
				cs.tracker.NoteFailedPoll(sh.ID)
				return
			}
			cs.tracker.Note(sh.ID, st)
			out[i].st, out[i].ok = st, true
		}(i, sh)
	}
	wg.Wait()
	return out
}

// clusterState returns the routing state, nil when not clustered.
func (s *Server) clusterView() *clusterState {
	return s.cluster.Load()
}

// clusterHealth is the gossip payload this shard advertises.
func (s *Server) clusterHealth() cluster.Status {
	st := cluster.Status{
		Draining:      s.Draining(),
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
		RetainedBytes: s.retainedBytes(),
	}
	if cs := s.clusterView(); cs != nil {
		st.ID = cs.self.ID
	}
	st.QuarantineOpen, _, _ = s.quar.stats()
	live, _, _ := s.sessions.stats()
	st.Sessions = live
	// Warm-failover signals: the p99 peers size hedge delays from, and
	// the verdict-cache digest anti-entropy compares.
	st.P99JobMicros = s.metrics.p99JobMicros()
	st.CacheDigest = s.cache.digest()
	return st
}

// routeTarget picks where a request for hash should run: the first
// healthy shard in rendezvous preference order. Returns (nil, 0) when
// that is this shard. The int is the preference rank actually chosen —
// rank > 0 on the local shard means the request was shed here past an
// unhealthy owner.
func (cs *clusterState) routeTarget(hash string, selfDraining bool) (*cluster.Shard, int) {
	prefs := cs.ring.Prefs(hash)
	for i := range prefs {
		sh := &prefs[i]
		if sh.ID == cs.self.ID {
			if selfDraining && len(prefs) > 1 {
				continue // drain re-homes even our own keys
			}
			return nil, i
		}
		if !cs.tracker.Healthy(sh.ID) {
			continue
		}
		return sh, i
	}
	return nil, 0 // nobody healthy: serve locally, let admission answer
}

// proxyGrace is the transport slack added on top of a request's
// solving budget when deriving its proxy deadline: the remote solver
// gets its full budget, the hops get this much on top.
const proxyGrace = 2 * time.Second

// routeCheck handles /v1/check routing for a clustered server. Returns
// true when the request was fully handled remotely (proxied or
// redirected); false when the caller should serve it locally.
func (s *Server) routeCheck(w http.ResponseWriter, r *http.Request, j *job) bool {
	cs := s.clusterView()
	if cs == nil {
		return false
	}
	if r.Header.Get(forwardHeader) != "" {
		s.metrics.clusterForwardedIn.Add(1)
		return false // a peer already routed this here; serve it
	}
	target, rank := cs.routeTarget(j.hash, s.Draining())
	if target == nil {
		if rank == 0 {
			s.metrics.clusterOwnedServed.Add(1)
		} else {
			s.metrics.clusterShedServed.Add(1)
		}
		return false
	}
	if cs.mode == ModeRedirect {
		loc := target.URL + r.URL.Path
		if r.URL.RawQuery != "" {
			loc += "?" + r.URL.RawQuery
		}
		w.Header().Set("Location", loc)
		w.Header().Set(shardHeader, cs.self.ID)
		w.WriteHeader(http.StatusTemporaryRedirect)
		s.metrics.clusterRedirected.Add(1)
		return true
	}
	// Proxy mode: walk the preference order from the chosen target on,
	// falling back past shards that bounce; a bounced shard is demoted
	// in the tracker immediately so the next request skips it without
	// waiting for a gossip tick. The walk is bounded by the request's
	// own deadline and hedges a slow primary to the next preference
	// (proxyHedged).
	payload, err := json.Marshal(j.req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return true
	}
	// The request's end-to-end deadline: its effective solving budget
	// plus transport grace. An uncapped request proxies uncapped.
	var deadline time.Time
	if j.timeout > 0 {
		deadline = time.Now().Add(j.timeout + proxyGrace)
	}
	prefs := cs.ring.Prefs(j.hash)
	var cands []cluster.Shard
	for i := rank; i < len(prefs); i++ {
		if prefs[i].ID == cs.self.ID {
			break // never walk past ourselves: local serve beats a worse peer
		}
		if i > rank && !cs.tracker.Healthy(prefs[i].ID) {
			continue
		}
		cands = append(cands, prefs[i])
	}
	if len(cands) > 0 && cs.proxyHedged(w, r, cands, "/v1/check", payload, deadline, s.metrics) {
		s.metrics.clusterProxied.Add(1)
		return true
	}
	s.metrics.clusterShedServed.Add(1)
	return false // every peer bounced; serve locally as the last resort
}

// peerJSON is the one round trip every cluster-internal JSON exchange
// uses (gossip polls, batch partitions, migration, replicate pushes and
// repair pulls): in, when non-nil, is sent as the JSON body; a 200
// answer is decoded into out, when non-nil; anything else is an
// *APIError. The request carries forwardHeader, so a peer serves it
// locally whatever its own ring says. The hedged /v1/check proxy
// streams instead and keeps its own startAttempt.
func (cs *clusterState) peerJSON(ctx context.Context, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		payload, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(forwardHeader, cs.self.ID)
	resp, err := cs.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return &APIError{StatusCode: resp.StatusCode, Message: readMessage(resp.Body)}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// attemptOutcome is one proxy attempt's terminal state.
type attemptOutcome struct {
	resp *http.Response
	err  error
}

// attempt is one in-flight proxied request.
type attempt struct {
	shard  cluster.Shard
	ch     chan attemptOutcome
	cancel context.CancelFunc
}

// startAttempt launches one proxy POST to target. The returned
// attempt's channel delivers exactly one outcome; callers must either
// consume it (and close any body) or abandon() the attempt.
func (cs *clusterState) startAttempt(r *http.Request, target cluster.Shard, path string, payload []byte, deadline time.Time) *attempt {
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline.IsZero() {
		ctx, cancel = context.WithCancel(r.Context())
	} else {
		ctx, cancel = context.WithDeadline(r.Context(), deadline)
	}
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, target.URL+path, bytes.NewReader(payload))
	if err != nil {
		cancel()
		return nil
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(forwardHeader, cs.self.ID)
	if !deadline.IsZero() {
		ms := time.Until(deadline).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		preq.Header.Set(deadlineHeader, strconv.FormatInt(ms, 10))
	}
	a := &attempt{shard: target, ch: make(chan attemptOutcome, 1), cancel: cancel}
	go func() {
		resp, err := cs.client.Do(preq)
		a.ch <- attemptOutcome{resp: resp, err: err}
	}()
	return a
}

// abandon cancels a losing attempt and reaps its outcome in the
// background (the transport aborts promptly on cancel; the reaper
// closes whatever body still arrives, keeping the connection pool
// clean and the goroutine count settled).
func (a *attempt) abandon() {
	a.cancel()
	go func() {
		if out := <-a.ch; out.resp != nil {
			drainClose(out.resp.Body)
		}
	}()
}

// hedgeDelay is how long a proxied request waits on its primary before
// duplicating to the next preference: twice the primary's own
// advertised p99 job wall-clock (a response slower than that is
// evidence of trouble, not of a hard query — the peer itself said so),
// clamped to keep pathological advertisements from hedging every
// request or never hedging at all.
func (cs *clusterState) hedgeDelay(id string) time.Duration {
	st, ok := cs.tracker.Status(id)
	if !ok || st.P99JobMicros <= 0 {
		return 500 * time.Millisecond
	}
	d := 2 * time.Duration(st.P99JobMicros) * time.Microsecond
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// proxyHedged forwards one JSON POST along the candidate preference
// list and streams the first usable answer back. A dead candidate
// (transport error, 503 bounce) is demoted and the walk advances, as
// before; a merely SLOW candidate is hedged: once the primary has been
// quiet past its gossip-derived p99, the same request is duplicated to
// the next preference and whichever answers first wins — at most two
// requests in flight, the loser cancelled and drained. Returns false —
// without having written anything — when every candidate bounced or
// the deadline ran out, so the caller serves locally.
func (cs *clusterState) proxyHedged(w http.ResponseWriter, r *http.Request, cands []cluster.Shard, path string, payload []byte, deadline time.Time, m *metrics) bool {
	idx := 0
	for idx < len(cands) {
		if !deadline.IsZero() && time.Until(deadline) <= 0 {
			return false // budget exhausted: the local clamp answers fastest
		}
		primary := cs.startAttempt(r, cands[idx], path, payload, deadline)
		idx++
		if primary == nil {
			continue
		}
		var hedge *attempt
		var timer *time.Timer
		var timerC <-chan time.Time
		if idx < len(cands) {
			timer = time.NewTimer(cs.hedgeDelay(primary.shard.ID))
			timerC = timer.C
		}
		for primary != nil || hedge != nil {
			var out attemptOutcome
			var from **attempt
			switch {
			case primary != nil && hedge != nil:
				select {
				case out = <-primary.ch:
					from = &primary
				case out = <-hedge.ch:
					from = &hedge
				}
			case primary != nil:
				select {
				case out = <-primary.ch:
					from = &primary
				case <-timerC:
					timerC = nil
					if idx < len(cands) {
						m.hedgesFired.Add(1)
						hedge = cs.startAttempt(r, cands[idx], path, payload, deadline)
						idx++
					}
					continue
				}
			default:
				out = <-hedge.ch
				from = &hedge
			}
			a := *from
			if out.err == nil && out.resp.StatusCode != http.StatusServiceUnavailable {
				if timer != nil {
					timer.Stop()
				}
				if a == hedge {
					m.hedgesWon.Add(1)
				}
				if other := pickOther(primary, hedge, a); other != nil {
					other.abandon()
				}
				relayResponse(w, out.resp)
				a.cancel()
				return true
			}
			// Bounce: unreachable, or a 503 the next preference should
			// absorb instead of the client.
			if out.resp != nil {
				drainClose(out.resp.Body)
			}
			cs.tracker.NoteDown(a.shard.ID)
			a.cancel()
			*from = nil
		}
		if timer != nil {
			timer.Stop()
		}
	}
	return false
}

// pickOther returns whichever of the two attempts is live and not the
// winner.
func pickOther(primary, hedge, winner *attempt) *attempt {
	if primary != nil && primary != winner {
		return primary
	}
	if hedge != nil && hedge != winner {
		return hedge
	}
	return nil
}

// relayResponse streams a proxied answer back to the client.
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	defer drainClose(resp.Body)
	for _, h := range []string{"Content-Type", "Retry-After", shardHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// proxyBatch forwards a whole batch partition to its owning shard and
// decodes the merged results.
func (cs *clusterState) proxyBatch(ctx context.Context, target cluster.Shard, items []*job) ([]*JobResult, error) {
	reqs := make([]CheckRequest, len(items))
	for i, j := range items {
		reqs[i] = j.req
	}
	var br BatchResponse
	if err := cs.peerJSON(ctx, http.MethodPost, target.URL+"/v1/batch", BatchRequest{Jobs: reqs}, &br); err != nil {
		return nil, err
	}
	if len(br.Results) != len(reqs) {
		return nil, fmt.Errorf("service: shard %s answered %d results for %d batch items", target.ID, len(br.Results), len(reqs))
	}
	return br.Results, nil
}

// batchGroup is one owner's slice of a fanned-out batch.
type batchGroup struct {
	target *cluster.Shard // nil = this shard
	idx    []int          // positions in the original batch
	items  []*job
}

// clusterBatch partitions a batch by owning shard, runs the local
// partition through the normal admission path, proxies each remote
// partition to its owner concurrently, and merges results in
// submission order. Any partition failing hard fails the whole batch
// with that error (the all-or-nothing contract single-shard batches
// already have), after one local-fallback attempt for remote
// partitions whose owner bounced.
func (s *Server) clusterBatch(w http.ResponseWriter, r *http.Request, items []*job, parent *sebmc.CancelFlag) {
	cs := s.clusterView()
	groups := make(map[string]*batchGroup)
	order := make([]string, 0, 4) // deterministic fan-out order
	for i, j := range items {
		target, _ := cs.routeTarget(j.hash, s.Draining())
		id := ""
		if target != nil {
			id = target.ID
		}
		g := groups[id]
		if g == nil {
			g = &batchGroup{target: target}
			groups[id] = g
			order = append(order, id)
		}
		g.idx = append(g.idx, i)
		g.items = append(g.items, j)
	}

	out := make([]*JobResult, len(items))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for gi, id := range order {
		g := groups[id]
		wg.Add(1)
		go func(gi int, g *batchGroup) {
			defer wg.Done()
			var results []*JobResult
			var err error
			if g.target != nil {
				s.metrics.clusterProxied.Add(int64(len(g.items)))
				results, err = cs.proxyBatch(r.Context(), *g.target, g.items)
				if err != nil {
					// The owner bounced: demote it and run the partition
					// here — locality is an optimization, the answer is
					// the contract.
					cs.tracker.NoteDown(g.target.ID)
					s.metrics.clusterShedServed.Add(int64(len(g.items)))
					results, err = s.serveBatch(r.Context(), g.items, parent)
				}
			} else {
				s.metrics.clusterOwnedServed.Add(int64(len(g.items)))
				results, err = s.serveBatch(r.Context(), g.items, parent)
			}
			if err != nil {
				errs[gi] = err
				return
			}
			for k, res := range results {
				out[g.idx[k]] = res
			}
		}(gi, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.writeError(w, submitCode(err), err)
			return
		}
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: out})
}

// migratePayload is the POST /v1/cluster/migrate body: everything a
// peer needs to rebuild a warm session's cheap half — the session
// identity (hash, engine, semantics, schedule, pg), the model, and the
// proven-unreachable prefix. Learned clauses and solver internals do
// not serialize; the prefix is what makes a deepen on the new owner
// resume instead of restart.
type migratePayload struct {
	sessionKey
	Model      string `json:"model"` // AAG, bad literal as output 0
	ProvenUpTo int    `json:"proven_up_to"`
}

// migrateSessions serializes every clean warm session and hands each
// to its key's next owner. Runs at the tail of Drain, after the
// workers have exited — no session is in use. Best effort: a peer that
// refuses (draining itself, down) just costs that session its warmth.
func (s *Server) migrateSessions(ctx context.Context) {
	cs := s.clusterView()
	if cs == nil {
		return
	}
	for _, snap := range s.sessions.snapshot() {
		var target *cluster.Shard
		for _, sh := range cs.ring.Prefs(snap.key.Hash) {
			if sh.ID == cs.self.ID || !cs.tracker.Healthy(sh.ID) {
				continue
			}
			sh := sh
			target = &sh
			break
		}
		if target == nil {
			s.metrics.clusterMigrateFailed.Add(1)
			continue
		}
		if err := cs.sendMigration(ctx, *target, snap); err != nil {
			s.metrics.clusterMigrateFailed.Add(1)
			continue
		}
		s.metrics.clusterMigratedOut.Add(1)
	}
}

func (cs *clusterState) sendMigration(ctx context.Context, target cluster.Shard, snap sessionSnapshot) error {
	var aag strings.Builder
	// Reduce puts the bad predicate at output 0 — the service's wire
	// convention, the same one /v1/check submissions use.
	if err := snap.sys.Reduce().Circ.WriteAAG(&aag); err != nil {
		return err
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	p := migratePayload{sessionKey: snap.key, Model: aag.String(), ProvenUpTo: snap.proven}
	return cs.peerJSON(sctx, http.MethodPost, target.URL+"/v1/cluster/migrate", p, nil)
}

// migrateResponse is the POST /v1/cluster/migrate answer.
type migrateResponse struct {
	// Adopted is false when the receiver already had a warm session for
	// the key (the resident one wins) or does not pool sessions.
	Adopted bool `json:"adopted"`
}

func (s *Server) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.clusterHealth())
}

// clusterBodyTimeout bounds how long a cluster-internal handler will
// wait for a peer's request body to arrive.
const clusterBodyTimeout = 30 * time.Second

// guardClusterBody caps a cluster-internal request's body size and
// arms a read deadline on the underlying connection, so a slow or
// oversized peer stream cannot pin a handler goroutine for the
// server-wide write timeout. The returned release clears the deadline
// (keep-alive connections are reused; a stale deadline would poison
// the next request on the same connection).
func (s *Server) guardClusterBody(w http.ResponseWriter, r *http.Request) func() {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	rc := http.NewResponseController(w)
	if err := rc.SetReadDeadline(time.Now().Add(clusterBodyTimeout)); err != nil {
		// The underlying writer cannot set deadlines (recorders in
		// tests); the byte cap still holds.
		return func() {}
	}
	return func() { _ = rc.SetReadDeadline(time.Time{}) }
}

func (s *Server) handleClusterMigrate(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	release := s.guardClusterBody(w, r)
	defer release()
	var p migratePayload
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad migration: %w", err))
		return
	}
	if p.Hash == "" || p.ProvenUpTo < 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: migration without hash or proven prefix"))
		return
	}
	sys, err := sebmc.LoadAIGER(strings.NewReader(p.Model), 0)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad migrated model: %w", err))
		return
	}
	// The key keeps the SENDER's content hash: future requests for this
	// model hash their own submitted source, and both derive from the
	// same parsed circuit, so the warm session must be filed under that
	// address, not a re-serialization's.
	opts := sebmc.Options{Semantics: p.Sem, Schedule: p.Sched, PlaistedGreenbaum: p.PG}
	adopted := s.sessions.adopt(p.sessionKey, sys, opts, p.ProvenUpTo)
	if adopted {
		s.metrics.clusterMigratedIn.Add(1)
	}
	writeJSON(w, http.StatusOK, migrateResponse{Adopted: adopted})
}
