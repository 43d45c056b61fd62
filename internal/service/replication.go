package service

// Warm failover for the sharded cluster: the machinery that makes a
// verdict survive the death of the shard that computed it.
//
//   - Replication: every fresh verdict-cache fill is write-behind
//     replicated to the key's first failover shard (the next entry in
//     rendezvous preference order). The enqueue is a non-blocking
//     send on a 1024-entry queue — a full queue drops the entry and
//     counts it, it never delays the request path — and a background
//     worker batches queued entries per target into POST
//     /v1/cluster/replicate. An entry is {key, result, model}: the
//     verdict-cache key, the cached JobResult itself, and the AAG
//     source. The receiver re-derives the model hash from the AAG and
//     replays the REACHABLE witness or the SAFE certificate before
//     adopting, exactly like served verdicts: a corrupt, dishonest or
//     uncheckable replica is dropped, not cached.
//
//   - Hinted handoff: when the replica target is down per the gossip
//     tracker (or a send bounces), entries park in a per-peer hint log
//     of at most 512 entries. The gossip loop drains a peer's hints the moment a
//     poll sees it healthy again, so a rebooted shard gets the
//     verdicts it missed without waiting for anti-entropy.
//
//   - Anti-entropy: each shard piggybacks a per-range verdict-cache
//     digest (count + XOR identity hash, cache.go) on its gossip
//     status. A shard whose view of a peer's range disagrees with its
//     own issues GET /v1/cluster/repair?ranges=... and merges the
//     difference — union merge, so repeated exchange converges after
//     partitions, kill -9 crashes, and rolling restarts. A per-(peer,
//     range) memo of the last digest pulled keeps the exchange
//     quiescent once the caches stop changing: divergence a pull
//     cannot close (entries past the LRU budget, run-stat-only
//     differences) is pulled once, not every tick.
//
// All three paths are always on in cluster mode and run under the
// replicate/hint/repair faultpoints, so the chaos storm exercises them; a panic injected into the
// background worker is contained, never process-fatal.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	sebmc "repro"
	"repro/internal/cluster"
	"repro/internal/faultpoint"
)

// replicaEntry is the wire form of one verdict-cache entry: the
// question, the answer exactly as the cache holds it, and — on
// replicate pushes only — the model source, so the receiver can check
// the content hash and replay the witness or certificate. Repair pulls
// omit the model (the cache does not retain it); the receiver then
// trusts only answers the sender had validated itself.
type replicaEntry struct {
	Key    verdictKey `json:"key"`
	Result JobResult  `json:"result"`
	// Model is the AAG source with the bad literal as output 0 — the
	// same wire convention /v1/check and /v1/cluster/migrate use.
	Model string `json:"model,omitempty"`
}

// replicatePayload is the POST /v1/cluster/replicate body.
type replicatePayload struct {
	Entries []replicaEntry `json:"entries"`
}

// replicateResponse reports how many entries the receiver adopted.
type replicateResponse struct {
	Accepted int `json:"accepted"`
}

// repairPayload is the GET /v1/cluster/repair answer. Truncated means
// the response hit its size cap; the puller must not memoize the
// digest it pulled against, so the next gossip tick pulls the rest.
type repairPayload struct {
	Entries   []replicaEntry `json:"entries"`
	Truncated bool           `json:"truncated,omitempty"`
}

// replTask is one queued write-behind replication: the cache entry
// plus the parsed system it answers for (serialized to AAG on the
// worker goroutine, never on the request path).
type replTask struct {
	entry replicaEntry
	sys   *sebmc.System
}

// replBatchMax bounds how many queued entries one send coalesces.
const replBatchMax = 32

// replSendTimeout bounds every replicate/hint/repair exchange.
const replSendTimeout = 10 * time.Second

// replQueueDepth bounds the write-behind queue: room for a burst of
// fresh fills while the worker is blocked on a slow peer. A full queue
// drops entries (counted, and anti-entropy repairs them) instead of
// blocking the request path.
const replQueueDepth = 1024

// hintLimit bounds each peer's hinted-handoff log. Hints beyond it
// drop oldest-first; anti-entropy repairs what drops.
const hintLimit = 512

// replicator is the warm-failover engine of one clustered shard: the
// bounded write-behind queue and its worker, the per-peer hint logs,
// and the anti-entropy pull memos.
type replicator struct {
	s  *Server
	cs *clusterState

	queue chan replTask

	mu         sync.Mutex
	hints      map[string][]replicaEntry // peer ID -> parked entries
	hintsTotal int
	lastPulled map[string]map[int]uint64 // peer ID -> range -> digest hash pulled
}

func newReplicator(s *Server, cs *clusterState) *replicator {
	return &replicator{
		s:          s,
		cs:         cs,
		queue:      make(chan replTask, replQueueDepth),
		hints:      make(map[string][]replicaEntry),
		lastPulled: make(map[string]map[int]uint64),
	}
}

// parked is the current hint-log occupancy, for /metrics.
func (r *replicator) parked() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hintsTotal
}

// enqueue hands one fresh cache fill to the write-behind worker. Non-
// blocking by construction: this is called from the request path, and
// a replication storm must degrade to dropped replicas (anti-entropy
// will catch them up), never to queue-depth latency on /v1/check.
func (r *replicator) enqueue(t replTask) {
	select {
	case r.queue <- t:
	default:
		r.s.metrics.replicateDropped.Add(1)
	}
}

// loop is the write-behind worker: it drains the queue in batches,
// groups entries by their failover target, and sends. Runs under the
// cluster's WaitGroup; exits when the cluster stops.
func (r *replicator) loop() {
	defer r.cs.wg.Done()
	for {
		var first replTask
		select {
		case <-r.cs.stop:
			return
		case first = <-r.queue:
		}
		batch := []replTask{first}
		for len(batch) < replBatchMax {
			select {
			case t := <-r.queue:
				batch = append(batch, t)
			default:
				goto send
			}
		}
	send:
		r.sendBatch(batch)
	}
}

// target picks the entry's first failover shard: the first shard in
// rendezvous preference order that is not this one. Nil on a
// single-shard "cluster" — nobody to replicate to.
func (r *replicator) target(hash string) *cluster.Shard {
	prefs := r.cs.ring.Prefs(hash)
	for i := range prefs {
		if prefs[i].ID != r.cs.self.ID {
			return &prefs[i]
		}
	}
	return nil
}

// sendBatch groups one drained batch by failover target and pushes
// each group, parking entries for unreachable targets in the hint log.
// Contained: a panic injected at the send faultpoint (or a bug in the
// serialization path) is swallowed here — the replicator is an
// accelerator, and its worker must survive anything.
func (r *replicator) sendBatch(batch []replTask) {
	defer func() { _ = recover() }()
	groups := make(map[string][]replicaEntry)
	targets := make(map[string]cluster.Shard)
	for _, t := range batch {
		sh := r.target(t.entry.Key.Hash)
		if sh == nil {
			continue
		}
		var aag strings.Builder
		if err := t.sys.Reduce().Circ.WriteAAG(&aag); err != nil {
			continue
		}
		t.entry.Model = aag.String()
		groups[sh.ID] = append(groups[sh.ID], t.entry)
		targets[sh.ID] = *sh
	}
	for id, entries := range groups {
		sh := targets[id]
		if !r.cs.tracker.Healthy(id) {
			r.park(id, entries)
			continue
		}
		accepted, err := r.push(sh, entries)
		if err != nil {
			// The target looked healthy but the send bounced: demote it
			// now (direct refusal evidence, no hysteresis) and park the
			// entries for handoff when gossip sees it back.
			r.cs.tracker.NoteDown(id)
			r.park(id, entries)
			continue
		}
		r.s.metrics.replicatedOut.Add(int64(accepted))
	}
}

// push POSTs one batch of entries to a peer's replicate endpoint.
func (r *replicator) push(target cluster.Shard, entries []replicaEntry) (int, error) {
	// Fault-injection site: an injected error simulates the network
	// eating the send (entries park as hints); an injected delay
	// simulates a slow peer stream.
	if err := faultpoint.Hit("service.replicate.send"); err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), replSendTimeout)
	defer cancel()
	var rr replicateResponse
	err := r.cs.peerJSON(ctx, http.MethodPost, target.URL+"/v1/cluster/replicate", replicatePayload{Entries: entries}, &rr)
	return rr.Accepted, err
}

// park appends entries to a peer's hint log, dropping the oldest hints
// beyond the per-peer bound — the log is a buffer for a reboot-sized
// outage, not an unbounded journal; what it drops, anti-entropy
// repairs later.
func (r *replicator) park(id string, entries []replicaEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	before := len(r.hints[id])
	log := append(r.hints[id], entries...)
	r.s.metrics.hintsQueued.Add(int64(len(entries)))
	if over := len(log) - hintLimit; over > 0 {
		log = append([]replicaEntry(nil), log[over:]...)
		r.s.metrics.hintsDropped.Add(int64(over))
	}
	r.hints[id] = log
	r.hintsTotal += len(log) - before
}

// drainHints pushes a recovered peer's parked hints. Called from the
// gossip loop right after a successful poll of the peer; on failure
// the hints re-park (bounded) for the next attempt.
func (r *replicator) drainHints(target cluster.Shard) {
	defer func() { _ = recover() }()
	r.mu.Lock()
	log := r.hints[target.ID]
	if len(log) == 0 {
		r.mu.Unlock()
		return
	}
	delete(r.hints, target.ID)
	r.hintsTotal -= len(log)
	r.mu.Unlock()

	// Fault-injection site: an injected error aborts the drain and
	// re-parks the hints, exercising the retry-next-tick path.
	if err := faultpoint.Hit("service.hint.drain"); err != nil {
		r.park(target.ID, log)
		return
	}
	for len(log) > 0 {
		n := len(log)
		if n > replBatchMax {
			n = replBatchMax
		}
		accepted, err := r.push(target, log[:n])
		if err != nil {
			r.cs.tracker.NoteDown(target.ID)
			r.park(target.ID, log)
			return
		}
		r.s.metrics.replicatedOut.Add(int64(accepted))
		r.s.metrics.hintsDrained.Add(int64(n))
		log = log[n:]
	}
}

// antiEntropy compares a freshly-heard peer digest against the local
// cache and pulls the ranges that disagree. The lastPulled memo keeps
// the exchange quiescent: a range is re-pulled only when the peer's
// digest differs both from ours and from what we last pulled from that
// peer — so divergence a pull cannot close (their entries fell to our
// LRU budget, or the entries differ only in run statistics) costs one
// pull, not one per tick.
func (r *replicator) antiEntropy(target cluster.Shard, st cluster.Status) {
	defer func() { _ = recover() }()
	if len(st.CacheDigest) == 0 {
		return
	}
	local := r.s.cache.digest()
	r.mu.Lock()
	memo := r.lastPulled[target.ID]
	var ranges []int
	for i := 0; i < len(st.CacheDigest) && i < len(local); i++ {
		peer := st.CacheDigest[i]
		if peer.Count == 0 || peer.Hash == local[i].Hash {
			continue // nothing to pull, or already converged
		}
		if memo != nil {
			if h, ok := memo[i]; ok && h == peer.Hash {
				continue // already pulled this exact divergence
			}
		}
		ranges = append(ranges, i)
	}
	r.mu.Unlock()
	if len(ranges) == 0 {
		return
	}
	// Fault-injection site: an injected error blackholes the pull —
	// divergence persists until the site disarms, exactly a partition.
	if err := faultpoint.Hit("service.repair.pull"); err != nil {
		return
	}
	r.s.metrics.repairPulls.Add(1)
	pulled, truncated, err := r.pull(target, ranges)
	if err != nil {
		return // next tick retries; the memo was not updated
	}
	adopted := 0
	for _, e := range pulled {
		if err := r.s.adoptReplica(e, false); err != nil {
			r.s.metrics.replicateRejected.Add(1)
			continue
		}
		adopted++
	}
	r.s.metrics.repairedEntries.Add(int64(adopted))
	r.s.metrics.replicatedIn.Add(int64(adopted))
	if truncated {
		return // more to pull; leave the memo stale so the next tick continues
	}
	r.mu.Lock()
	if r.lastPulled[target.ID] == nil {
		r.lastPulled[target.ID] = make(map[int]uint64)
	}
	for _, i := range ranges {
		r.lastPulled[target.ID][i] = st.CacheDigest[i].Hash
	}
	r.mu.Unlock()
}

// pull fetches a peer's entries for the given ranges.
func (r *replicator) pull(target cluster.Shard, ranges []int) ([]replicaEntry, bool, error) {
	parts := make([]string, len(ranges))
	for i, rg := range ranges {
		parts[i] = strconv.Itoa(rg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), replSendTimeout)
	defer cancel()
	var rp repairPayload
	err := r.cs.peerJSON(ctx, http.MethodGet, target.URL+"/v1/cluster/repair?ranges="+strings.Join(parts, ","), nil, &rp)
	return rp.Entries, rp.Truncated, err
}

// replicateFill hands one fresh verdict-cache fill to the write-behind
// replicator, under the same key the local cache used (bound-free for
// terminal verdicts). Called on the request path, so it must stay O(1):
// a channel send or a dropped-counter bump, nothing else. A terminal
// verdict without a certificate (the k-induction arm proves without an
// artifact) is not replicated — receivers adopt terminal claims only
// after replaying a certificate, so the send would just bounce.
func (s *Server) replicateFill(j *job, key verdictKey, res JobResult) {
	cs := s.clusterView()
	if cs == nil {
		return
	}
	if res.Terminal && res.Certificate == "" {
		return
	}
	cs.repl.enqueue(replTask{entry: replicaEntry{Key: key, Result: res}, sys: j.sys})
}

// adoptReplica validates one wire entry and adopts it into the local
// verdict cache. withModel distinguishes replicate pushes (model
// attached: check the content hash, replay the witness or certificate
// here) from repair pulls (no model: only answers the sender marks as
// validated are accepted). Either way a REACHABLE answer must carry
// its witness and a SAFE one its certificate: an answer that cannot
// be checked is not adopted on a peer's word.
func (s *Server) adoptReplica(e replicaEntry, withModel bool) error {
	res := e.Result
	reachable, safe := res.Status == sebmc.Reachable.String(), res.Status == sebmc.Safe.String()
	terminal := e.Key == terminalKey(e.Key.Hash)
	switch {
	case e.Key.Hash == "":
		return fmt.Errorf("service: replica entry without model hash")
	case !res.decided():
		// Only decided answers are cacheable; UNKNOWN depends on the
		// sender's budget and ERROR must never be replayed.
		return fmt.Errorf("service: replica entry with undecided status %q", res.Status)
	case res.Error != "":
		return fmt.Errorf("service: replica entry carries an error: %s", res.Error)
	case safe != terminal || res.Terminal != terminal:
		// The bound-free key answers every bound of the model, so only a
		// terminal SAFE may live there, and a SAFE lives nowhere else.
		return fmt.Errorf("service: replica entry %s (terminal=%v) does not fit its key (bound %d)", res.Status, res.Terminal, e.Key.Bound)
	case reachable && res.Witness == "":
		return fmt.Errorf("service: reachable replica entry without witness")
	case safe && res.Certificate == "":
		// A terminal claim short-circuits every future bound for the
		// model, so it is held to the strictest adoption bar.
		return fmt.Errorf("service: terminal replica entry without certificate")
	}
	if withModel {
		if e.Model == "" {
			return fmt.Errorf("service: replica entry without model source")
		}
		sys, err := sebmc.LoadAIGER(strings.NewReader(e.Model), 0)
		if err != nil {
			return fmt.Errorf("service: bad replica model: %w", err)
		}
		if got := sebmc.ModelHash(sys); got != e.Key.Hash {
			return fmt.Errorf("service: replica model hash %s does not match claimed %s", got, e.Key.Hash)
		}
		// The validated flags say what replayed HERE, whatever the
		// sender claimed.
		res.WitnessValidated, res.CertificateValidated = false, false
		if safe {
			// The shipped invariant certificate must replay by
			// substitution against this receiver's own parse of the
			// model.
			cert, err := sebmc.ParseCertificate(res.Certificate)
			if err != nil {
				return fmt.Errorf("service: bad replica certificate: %w", err)
			}
			if cert.Kind != sebmc.CertInvariant {
				return fmt.Errorf("service: terminal replica entry with %s certificate", cert.Kind)
			}
			if err := cert.Validate(sys.Reduce()); err != nil {
				return fmt.Errorf("service: replica certificate does not replay: %w", err)
			}
			res.CertificateValidated = true
		}
		if reachable {
			// Replay the witness locally, exactly like a served verdict:
			// REACHABLE claims are never taken on faith across shards.
			// At-most-k runs (and the deepening schedules that force that
			// semantics internally) record their traces against the
			// self-looped transform — one extra input selecting the
			// stutter step — so a plain-system replay is tried first and
			// the transform second. A trace that replays on neither (the
			// cone-of-influence reduction can also change widths) is
			// rejected here; such entries still reach the peer through
			// anti-entropy repair, which trusts the fill-time validation.
			wit, err := sebmc.ParseWitness(res.Witness)
			if err != nil {
				return fmt.Errorf("service: bad replica witness: %w", err)
			}
			if err := wit.Validate(sys); err != nil {
				if err2 := wit.Validate(sebmc.AddSelfLoop(sys)); err2 != nil {
					return fmt.Errorf("service: replica witness does not replay: %w", err)
				}
			}
			res.WitnessValidated = true
		}
	} else if reachable && !res.WitnessValidated {
		// Repair entries carry no model to replay against; only
		// witnesses already validated by the shard that computed or
		// received them are trusted.
		return fmt.Errorf("service: repair entry carries an unvalidated witness")
	} else if safe && !res.CertificateValidated {
		// The same bar for terminal claims: without a model to replay
		// against, only certificates already validated by the shard
		// that computed or adopted them cross on repair.
		return fmt.Errorf("service: repair entry carries an unvalidated terminal claim")
	}
	if s.cache.has(e.Key) {
		return nil // idempotent: the resident entry wins
	}
	s.cache.put(e.Key, res)
	return nil
}

// handleClusterReplicate is POST /v1/cluster/replicate: a failover
// peer pushing verdict-cache entries at this shard.
func (s *Server) handleClusterReplicate(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	release := s.guardClusterBody(w, r)
	defer release()
	var p replicatePayload
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad replicate payload: %w", err))
		return
	}
	accepted := 0
	for _, e := range p.Entries {
		if err := s.adoptReplica(e, true); err != nil {
			s.metrics.replicateRejected.Add(1)
			continue
		}
		accepted++
	}
	s.metrics.replicatedIn.Add(int64(accepted))
	writeJSON(w, http.StatusOK, replicateResponse{Accepted: accepted})
}

// repairEntryMax caps one repair response; a peer further behind pulls
// again next tick (the response says so via Truncated).
const repairEntryMax = 4096

// handleClusterRepair is GET /v1/cluster/repair?ranges=0,3,15: the
// anti-entropy pull endpoint, answering this shard's entries in the
// requested digest ranges (no model attached — only entries whose
// witnesses were validated at fill time leave through here).
func (s *Server) handleClusterRepair(w http.ResponseWriter, r *http.Request) {
	release := s.guardClusterBody(w, r)
	defer release()
	ranges := make(map[int]bool)
	spec := r.URL.Query().Get("ranges")
	if spec == "" {
		for i := 0; i < digestRanges; i++ {
			ranges[i] = true
		}
	} else {
		for _, part := range strings.Split(spec, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 0 || n >= digestRanges {
				s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad repair range %q", part))
				return
			}
			ranges[n] = true
		}
	}
	entries := s.cache.rangeEntries(ranges)
	out := repairPayload{}
	for _, e := range entries {
		if len(out.Entries) >= repairEntryMax {
			out.Truncated = true
			break
		}
		out.Entries = append(out.Entries, replicaEntry{Key: e.key, Result: e.v})
	}
	writeJSON(w, http.StatusOK, out)
}
