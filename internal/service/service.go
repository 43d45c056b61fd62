// Package service implements bmcd, the long-running checking service:
// an HTTP/JSON front end that keeps the sebmc engines warm across
// requests. Three mechanisms make the server cheaper than re-running
// the CLI per query:
//
//   - a bounded job queue fanned over a fixed worker pool, with
//     cooperative cancellation on client disconnect, per-request
//     timeout, and explicit cancel. A batch is admitted all-or-nothing
//     and its items are ordinary queued jobs — same cache, sessions
//     and admission ladder as a single check; sync, async and batch
//     submissions differ only in how they wait;
//   - a verdict cache keyed by (model content hash, bound, semantics,
//     engine, deepen, CNF mode) under an LRU byte budget, accounted the
//     same honest way as the solvers' ClauseDBBytes/MemBytes;
//   - a session pool of persistent EngineSATIncr / EngineJSAT handles
//     (sebmc.Session), so a repeated model submitted at a deeper bound
//     resumes the warm solver — learned clauses, hopeless-state cache
//     and the proven-unreachable prefix carry over — instead of
//     starting cold.
//
// Shutdown is a graceful drain: new submissions are rejected with 503,
// queued and in-flight jobs run to completion, then the server stops.
package service

import (
	"context"
	"encoding"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	sebmc "repro"
	"repro/internal/faultpoint"
)

// Config sizes the server. The zero value is usable: one worker per
// CPU, a 64-slot queue, 16 MiB of verdicts, 64 MiB of warm sessions.
type Config struct {
	// Workers is the job worker pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// submissions beyond it are rejected with 503 (0 = 64).
	QueueDepth int
	// CacheBytes is the verdict cache's LRU byte budget (0 = 16 MiB;
	// negative disables the cache).
	CacheBytes int
	// SessionBytes is the session pool's retained-solver byte budget
	// (0 = 64 MiB; negative disables warm sessions).
	SessionBytes int
	// DefaultEngine answers requests that name no engine
	// (zero value = EngineSAT; bmcd defaults to the portfolio).
	DefaultEngine sebmc.Engine
	// DefaultSchedule is the deepening schedule for requests that name
	// none (zero value = linear).
	DefaultSchedule sebmc.Schedule
	// MaxJobs bounds the finished-job history kept for status queries
	// (0 = 4096). Oldest finished jobs are evicted first.
	MaxJobs int

	// MaxTimeout caps every request's solving budget: a client
	// timeout_ms above it is clamped, and a request with no timeout at
	// all gets exactly MaxTimeout — so a hostile bound can pin a worker
	// for at most this long. 0 leaves client budgets uncapped.
	MaxTimeout time.Duration

	// MemHighWater is the overload watermark over retained memory
	// (warm sessions + verdict cache). When an admission would find the
	// total above it, idle sessions are shed LRU-first; if that is not
	// enough, the submission is rejected with 503 — degrade before the
	// process OOMs. 0 disables the watermark.
	MemHighWater int

	// QuarantineThreshold is the circuit breaker's trip count: after
	// this many internal errors (panics, poisoned sessions) for one
	// (model hash, engine) key, requests for it are rejected
	// immediately until QuarantineTTL passes and a half-open probe
	// succeeds. 0 = 3; negative disables quarantine.
	QuarantineThreshold int
	// QuarantineTTL is how long a quarantined key stays rejected
	// before the breaker half-opens (0 = 30s).
	QuarantineTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 16 << 20
	}
	if c.SessionBytes == 0 {
		c.SessionBytes = 64 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.QuarantineThreshold == 0 {
		c.QuarantineThreshold = 3
	}
	if c.QuarantineTTL <= 0 {
		c.QuarantineTTL = 30 * time.Second
	}
	return c
}

// Errors surfaced to submitters. ErrQuarantined lives in quarantine.go.
var (
	ErrDraining  = errors.New("service: draining, not accepting new jobs")
	ErrQueueFull = errors.New("service: job queue full")
	// ErrOverloaded rejects a submission because retained memory is
	// over the watermark and shedding idle sessions was not enough.
	ErrOverloaded = errors.New("service: over memory watermark, shedding was not enough")
)

// Server is the checking service. Create with New, expose Handler()
// over any http.Server, and stop with Drain.
type Server struct {
	cfg      Config
	metrics  *metrics
	cache    *verdictCache
	sessions *sessionPool
	quar     *quarantine

	// cluster is non-nil once JoinCluster succeeds (router.go); nil on a
	// standalone server, which skips every routing branch.
	cluster     atomic.Pointer[clusterState]
	clusterOnce sync.Once

	mu       sync.Mutex
	draining bool
	queue    chan *job
	jobs     map[string]*job
	order    []string // submission order, for history eviction
	head     int      // rolling eviction cursor into order
	nextID   uint64

	wg sync.WaitGroup
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		metrics:  newMetrics(),
		cache:    newVerdictCache(cfg.CacheBytes),
		sessions: newSessionPool(cfg.SessionBytes),
		quar:     newQuarantine(cfg.QuarantineThreshold, cfg.QuarantineTTL),
		queue:    make(chan *job, cfg.QueueDepth),
		jobs:     make(map[string]*job),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Drain stops intake and waits for every queued and in-flight job to
// finish: the SIGTERM path. Submissions during and after the drain are
// rejected with ErrDraining (HTTP 503). Returns ctx.Err if the context
// expires first; the workers keep finishing in the background in that
// case. Idempotent.
//
// On a clustered server the tail of a successful drain re-homes warm
// state: every clean session's proven prefix is handed to its key's
// next owner (best effort), then the gossip loop stops. Peers shed new
// requests for this shard's keys as soon as gossip (or a bounced
// proxy) notices the drain, so traffic and warm state move together.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // workers finish the queued jobs, then exit
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.clusterOnce.Do(func() {
			if cs := s.clusterView(); cs != nil {
				s.migrateSessions(ctx) // workers are done; sessions are idle
				cs.clusterStop()
			}
		})
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// submit validates, registers and enqueues one job. The returned job is
// already visible to status queries.
func (s *Server) submit(req CheckRequest) (*job, error) {
	j, err := s.newJob(req)
	if err != nil {
		return nil, err
	}
	return j, s.enqueue(j)
}

// enqueue admits and enqueues an already-parsed job. Split from submit
// so the cluster router can parse (for the model hash) before deciding
// whether this shard runs the job at all.
func (s *Server) enqueue(j *job) error {
	if err := s.admitKey(j); err != nil {
		return err
	}
	if err := s.admitLoad(1); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.metrics.rejected.Add(1)
		return ErrDraining
	}
	// Register first, then enqueue: a worker may start the job the
	// instant it lands in the channel, and by then it must already have
	// its id and be visible to status queries — the old enqueue-first
	// order raced a fast worker against registerLocked.
	s.registerLocked(j)
	select {
	case s.queue <- j:
	default:
		s.unregisterLocked(j)
		s.metrics.rejected.Add(1)
		return ErrQueueFull
	}
	s.metrics.submitted.Add(1)
	return nil
}

// enqueueBatch admits a parsed batch all-or-nothing and enqueues its
// items as ordinary jobs. The memory watermark, a drain or a full queue
// rejects the whole batch, counting every item; a batch larger than the
// queue is always rejected. Every queue send happens under s.mu, so the
// sends after the capacity check cannot block. A quarantined item is
// answered ERROR in place and the rest still run.
func (s *Server) enqueueBatch(items []*job) error {
	if err := s.admitLoad(len(items)); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.metrics.rejected.Add(int64(len(items)))
		return ErrDraining
	}
	if len(s.queue)+len(items) > s.cfg.QueueDepth {
		s.metrics.rejected.Add(int64(len(items)))
		return ErrQueueFull
	}
	for _, j := range items {
		if err := s.admitKey(j); err != nil {
			j.finish(errorResult(j, err, false))
			continue
		}
		s.registerLocked(j)
		s.queue <- j
		s.metrics.submitted.Add(1)
	}
	return nil
}

// admitKey is the circuit breaker: a known-crashy (model, engine) key
// is answered immediately, no worker touched.
func (s *Server) admitKey(j *job) error {
	if err := s.quar.allow(j.quarantineKey()); err != nil {
		s.metrics.quarantineRejected.Add(1)
		s.metrics.rejected.Add(1)
		return err
	}
	return nil
}

// admitLoad is the overload ladder for n jobs admitted together: the
// memory watermark sheds idle warm sessions LRU-first and rejects only
// if shedding still leaves retained memory over the line.
func (s *Server) admitLoad(n int) error {
	// Fault-injection site: an injected error exercises the
	// 503-with-live-Retry-After rejection path without real pressure.
	if err := faultpoint.Hit("service.queue.admit"); err != nil {
		s.metrics.rejected.Add(int64(n))
		return fmt.Errorf("%w: %v", ErrOverloaded, err)
	}
	if hw := s.cfg.MemHighWater; hw > 0 {
		if over := s.retainedBytes() - hw; over > 0 {
			shed, freed := s.sessions.shedIdle(over)
			s.metrics.sessionsShed.Add(int64(shed))
			if freed < over {
				s.metrics.overloadRejected.Add(int64(n))
				s.metrics.rejected.Add(int64(n))
				return ErrOverloaded
			}
		}
	}
	return nil
}

// retainedBytes is the watermark's view of retained memory: warm
// solver state plus cached verdicts — the two pools the server grows
// on purpose.
func (s *Server) retainedBytes() int {
	return s.sessions.Bytes() + s.cache.Bytes()
}

// retryAfterSeconds estimates how long a rejected client should back
// off, from live queue depth and the job wall-clock EMA: about
// depth/workers jobs drain ahead of a retry, each taking ~avg. Clamped
// to [1, 60].
func (s *Server) retryAfterSeconds() int {
	depth := int64(len(s.queue)) + 1 // the retry itself needs a slot
	avg := s.metrics.avgJobMicros.Load()
	if avg <= 0 {
		avg = 50_000 // no history yet; assume 50ms jobs
	}
	secs := int(depth * avg / int64(s.cfg.Workers) / 1_000_000)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// newJob parses and validates a request into a runnable job, without
// registering it: enqueue and enqueueBatch do that on admission.
func (s *Server) newJob(req CheckRequest) (*job, error) {
	sys, err := loadModel(req)
	if err != nil {
		return nil, err
	}
	// The names parse through the same text codecs the cluster wire
	// uses; "" means the server default.
	engine, sem, sched := s.cfg.DefaultEngine, sebmc.Exact, s.cfg.DefaultSchedule
	for _, f := range []struct {
		name string
		dst  encoding.TextUnmarshaler
	}{{req.Engine, &engine}, {req.Semantics, &sem}, {req.Schedule, &sched}} {
		if f.name != "" {
			if err := f.dst.UnmarshalText([]byte(f.name)); err != nil {
				return nil, err
			}
		}
	}
	if !req.Deepen {
		sched = sebmc.ScheduleLinear // schedules only shape deepen runs
	}
	if sched == sebmc.ScheduleGeometric {
		// The geometric schedule is only sound under at-most-k (an
		// Unreachable answer at 2k must cover every skipped bound ≤ 2k).
		// Forcing it here keeps the job's cache identity honest: the
		// answer — same shortest depth linear reports — is an at-most-k
		// answer, and the warm session serving it is an at-most session.
		sem = sebmc.AtMost
	}
	if req.Prove {
		if req.Deepen {
			return nil, fmt.Errorf("service: prove and deepen are mutually exclusive")
		}
		engine = sebmc.EngineInterp
	}
	if engine == sebmc.EngineInterp {
		// The interpolation engine's answers are bound-independent or
		// carry their own depth — at-most-k by nature — and it deepens
		// itself, so the same forcing pattern as geometric keeps the
		// cache identity honest.
		if req.Deepen {
			return nil, fmt.Errorf("service: engine interp deepens itself; use prove or a plain check")
		}
		sem = sebmc.AtMost
		sched = sebmc.ScheduleLinear
	}
	if req.Bound < 0 {
		return nil, fmt.Errorf("service: negative bound %d", req.Bound)
	}
	// Effective budget: the client's timeout_ms clamped to the server
	// cap. Under a cap, a request with no timeout at all gets exactly
	// the cap — a hostile bound cannot pin a worker forever.
	timeout := req.timeout()
	if max := s.cfg.MaxTimeout; max > 0 && (timeout <= 0 || timeout > max) {
		timeout = max
	}
	return &job{
		req:     req,
		sys:     sys,
		hash:    sebmc.ModelHash(sys),
		engine:  engine,
		sem:     sem,
		sched:   sched,
		cancel:  sebmc.NewCancelFlag(),
		timeout: timeout,
		done:    make(chan struct{}),
		state:   JobQueued,
	}, nil
}

// registerLocked assigns an id and stores the job in the history,
// evicting the oldest finished jobs beyond the cap. Callers hold s.mu.
func (s *Server) registerLocked(j *job) {
	s.nextID++
	j.id = fmt.Sprintf("job-%06d", s.nextID)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictHistoryLocked()
}

// unregisterLocked rolls back a registerLocked whose enqueue failed.
// The job is necessarily the newest entry (registration and rollback
// happen under one lock hold), so the rollback is a tail pop. Callers
// hold s.mu.
func (s *Server) unregisterLocked(j *job) {
	delete(s.jobs, j.id)
	if n := len(s.order); n > 0 && s.order[n-1] == j.id {
		s.order = s.order[:n-1]
	}
}

// evictHistoryLocked drops the oldest finished jobs once the history
// cap is exceeded. The rolling head cursor keeps the common case O(1):
// jobs finish in rough submission order, so the oldest entry is almost
// always the evictable one and the scan stops immediately — no
// front-to-back rescan or slice shift per submission. Callers hold
// s.mu.
func (s *Server) evictHistoryLocked() {
	for len(s.jobs) > s.cfg.MaxJobs {
		evicted := false
		for i := s.head; i < len(s.order); i++ {
			id := s.order[i]
			old, ok := s.jobs[id]
			if !ok {
				// Slot already evicted; advance past a cleared prefix.
				if i == s.head {
					s.head++
				}
				continue
			}
			if old.State() != JobDone {
				continue // still live; keep it, try a later entry
			}
			delete(s.jobs, id)
			if i == s.head {
				s.head++
			} else {
				s.order[i] = "" // cleared out of order; skipped above
			}
			evicted = true
			break
		}
		if !evicted {
			break // everything live; let the history run long
		}
	}
	// Compact once the consumed prefix dominates, so order does not
	// grow without bound over the server's lifetime.
	if s.head > 1024 && s.head > len(s.order)/2 {
		s.order = append(s.order[:0:0], s.order[s.head:]...)
		s.head = 0
	}
}

// lookup returns a job by id.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// worker drains the queue until it is closed and empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one job end to end: verdict cache, warm session or cold
// engine, witness validation, metrics. The whole answer-and-finish
// path runs inside finishContained's recover: this is a worker
// goroutine, so an escaped panic here would kill the process.
func (s *Server) run(j *job) {
	j.setState(JobRunning)
	start := time.Now()
	res := s.finishContained(j, func() *JobResult { return s.answer(j) })
	elapsed := time.Since(start)
	res.ElapsedMS = elapsed.Milliseconds()
	s.metrics.noteElapsed(elapsed)
	j.finish(res)
	if res.Status == sebmc.Unknown.String() && j.cancel.Canceled() {
		if j.timedOut.Load() {
			s.metrics.timedOut.Add(1)
		} else {
			s.metrics.cancelled.Add(1)
		}
	}
	s.metrics.notePeakBytes(int64(s.sessions.Bytes()))
}

// finishContained is the worker-side containment boundary: it runs the
// given answer step and finishResult under a recover, converting any
// panic that escaped the library's own containment (witness
// validation, the verdict cache, result conversion) into an ERROR
// result. The recovered path re-enters finishResult so the error still
// counts toward metrics and quarantine; ERROR results never touch the
// cache, so it cannot re-panic the same way.
func (s *Server) finishContained(j *job, f func() *JobResult) (res *JobResult) {
	defer func() {
		if r := recover(); r != nil {
			pe := &sebmc.PanicError{Val: r, Stack: debug.Stack()}
			res = s.finishResult(j, errorResult(j, pe, false))
		}
	}()
	return s.finishResult(j, f())
}

// answer produces the job's raw result, consulting the verdict cache
// first; finishResult applies the common post-processing.
func (s *Server) answer(j *job) *JobResult {
	if res := s.terminalHit(j); res != nil {
		return res
	}
	if res, ok := s.cache.get(j.key()); ok {
		s.metrics.cacheHits.Add(1)
		res.Cached = true
		return &res
	}
	s.metrics.cacheMisses.Add(1)

	// Per-request timeout rides the cancellation flag, so timeout,
	// client disconnect and explicit cancel all stop the solver the
	// same way — and none of them poisons a warm session. The timedOut
	// mark keeps the two apart in /metrics. j.timeout is the clamped
	// effective budget, not the raw client ask.
	if d := j.timeout; d > 0 {
		t := time.AfterFunc(d, func() {
			j.timedOut.Store(true)
			j.cancel.Set()
		})
		defer t.Stop()
	}
	return s.solve(j)
}

// terminalHit answers a job from the model's bound-free terminal cache
// entry, if one exists. Checked before the bound-keyed lookup on every
// path: a terminal SAFE holds at any depth under either semantics, so
// the requested bound, engine and schedule are all advisory — the
// answer is an O(lookup) cache hit whatever was asked.
func (s *Server) terminalHit(j *job) *JobResult {
	res, ok := s.cache.get(terminalKey(j.hash))
	if !ok {
		return nil
	}
	s.metrics.cacheHits.Add(1)
	s.metrics.terminalHits.Add(1)
	res.Bound = j.req.Bound // the entry is bound-free; answer what was asked
	res.Cached = true
	return &res
}

// finishResult is the single post-processing path every answered job —
// computed or cached — goes through: count internal errors and
// recovered panics, fill the verdict cache (clean decided, freshly
// computed answers only; UNKNOWN depends on the request's budget, not
// the question, and ERROR or a failed witness replay must never be
// replayed from cache), feed the circuit breaker, bump the completion
// metrics, and strip the witness the requester did not ask for. Stripping happens after caching, so the cache keeps the
// trace for later requesters who do want it.
func (s *Server) finishResult(j *job, res *JobResult) *JobResult {
	if res.errored() {
		s.metrics.internalErrors.Add(1)
		if res.panicked {
			s.metrics.panicsRecovered.Add(1)
		}
	}
	if !res.Cached {
		if res.decided() && res.Error == "" {
			// Terminal verdicts fill the model's bound-free entry, so
			// any later bound short-circuits; everything else stays
			// keyed by exactly what was asked.
			key := j.key()
			if res.Terminal {
				key = terminalKey(j.hash)
			}
			s.cache.put(key, *res)
			// Write-behind replicate the fresh fill to the key's first
			// failover shard (no-op standalone). A non-blocking enqueue:
			// replication must never add latency to the request path.
			s.replicateFill(j, key, *res)
			// Fresh computes only: a cache hit re-serves the recorded
			// savings without skipping any new solver work.
			s.metrics.deepenBoundsSkipped.Add(int64(res.BoundsSkipped))
		}
		// Only fresh outcomes teach the breaker anything: an internal
		// error is a strike, a clean verdict clears the key, an UNKNOWN
		// (budget ran out) is neutral.
		s.quar.observe(j.quarantineKey(), res.errored(), res.decided())
	}
	s.metrics.completed.Add(1)
	s.metrics.noteDecided(res.DecidedBy)
	s.metrics.notePeakBytes(int64(res.PeakBytes))
	if !j.req.Witness {
		res.Witness = ""
	}
	if !j.req.Certificate {
		res.Certificate = ""
	}
	return res
}

// solve runs the actual check: on a warm session for the incremental
// engines, cold otherwise.
func (s *Server) solve(j *job) *JobResult {
	opts := sebmc.Options{
		Semantics:         j.sem,
		Schedule:          j.sched,
		PlaistedGreenbaum: j.req.PlaistedGreenbaum,
	}
	// Prove requests and the interp engine both go through the library's
	// unbounded proving paths, which can return the terminal SAFE no
	// bounded run ever produces. prove races k-induction against
	// interpolation (fastest terminal answer; the induction arm proves
	// without a certificate); engine=interp runs interpolation alone, so
	// its SAFE always ships the invariant certificate. No session pool:
	// the proof loops build their own incremental state per run.
	if j.req.Prove || j.engine == sebmc.EngineInterp {
		opts.Cancel = j.cancel
		if j.req.Prove {
			return fromVerdict(sebmc.Prove(j.sys, j.req.Bound, opts), j)
		}
		return fromVerdict(sebmc.ProveInterp(j.sys, j.req.Bound, opts), j)
	}
	if sess, hit := s.sessions.acquire(j, opts); sess != nil {
		// A session that recovered a panic is poisoned: its solver state
		// is untrusted, so it is discarded from the pool — bytes
		// released, never handed to another request — instead of being
		// checked back in. Deferred so a panic unwinding through the
		// conversion path still returns the checkout.
		defer func() {
			if sess.Poisoned() {
				s.sessions.discard(j)
			} else {
				s.sessions.release(j, sess)
			}
		}()
		if hit {
			s.metrics.sessionHits.Add(1)
		} else {
			s.metrics.sessionMisses.Add(1)
		}
		if j.req.Deepen {
			return fromDeepen(sess.DeepenWith(j.req.Bound, j.cancel), j, hit)
		}
		return fromResult(sess.CheckWith(j.req.Bound, j.cancel), j, hit)
	}
	opts.Cancel = j.cancel
	if j.req.Deepen {
		return fromDeepen(sebmc.Deepen(j.sys, j.req.Bound, j.engine, opts), j, false)
	}
	return fromResult(sebmc.Check(j.sys, j.req.Bound, j.engine, opts), j, false)
}
