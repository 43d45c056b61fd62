package service

// The session pool: persistent sebmc.Session handles keyed by (model
// content hash, engine, semantics, CNF mode), so repeated requests for
// the same model resume a warm solver. Retained solver memory — the
// honest footprint each Session reports (ClauseDBBytes high water for
// the incremental engine, live interned-cache-and-solver MemBytes for
// jSAT) — is bounded by an LRU byte budget; least-recently-used idle
// sessions are dropped first when the pool runs over. A session in use
// by a worker is never evicted (the checkout is refcounted), and
// concurrent requests for the same model serialize on the session's
// own lock, which is exactly the single-threaded contract of the
// underlying solver.

import (
	"container/list"
	"sync"

	sebmc "repro"
	"repro/internal/faultpoint"
)

// sessionKey identifies one warm session. Its JSON form names the
// engine, semantics and schedule, and is the migrate wire's identity.
type sessionKey struct {
	Hash   string          `json:"hash"`
	Engine sebmc.Engine    `json:"engine"`
	Sem    sebmc.Semantics `json:"semantics"`
	// Sched: a Session bakes the schedule into its Options at
	// construction (geometric forces at-most-k on the warm solver), so
	// sessions built for different schedules are not interchangeable.
	Sched sebmc.Schedule `json:"schedule"`
	PG    bool           `json:"pg,omitempty"`
}

func (j *job) sessionKey() sessionKey {
	return sessionKey{Hash: j.hash, Engine: j.engine, Sem: j.sem, Sched: j.sched, PG: j.req.PlaistedGreenbaum}
}

type sessionEntry struct {
	key sessionKey
	// ready is closed once sess is populated: the builder inserts the
	// entry as a placeholder and encodes the model OUTSIDE the pool
	// lock (a cold jsat build runs a full Tseitin encoding — holding
	// the lock would head-of-line block every other request), while
	// later arrivals for the same key wait here instead of building a
	// duplicate. nil sess after ready means the build failed.
	ready chan struct{}
	sess  *sebmc.Session
	inUse int
	bytes int // last accounted MemBytesHint
}

// sessionPool holds the warm sessions. budget < 0 disables warm
// sessions (every request then runs cold).
type sessionPool struct {
	mu      sync.Mutex
	budget  int
	bytes   int
	ll      *list.List // front = most recently used
	entries map[sessionKey]*list.Element
}

func newSessionPool(budget int) *sessionPool {
	return &sessionPool{
		budget:  budget,
		ll:      list.New(),
		entries: make(map[sessionKey]*list.Element),
	}
}

// sessionable reports whether the engine keeps useful state across
// requests. The other engines re-encode per query; a session would
// only add lock contention.
func sessionable(e sebmc.Engine) bool {
	return e == sebmc.EngineSATIncr || e == sebmc.EngineJSAT
}

// acquire returns a checked-out warm session for the job, creating one
// on first sight of the model. hit reports whether the session already
// existed. Returns (nil, false) when the job's engine does not run as
// a session or the pool is disabled.
func (p *sessionPool) acquire(j *job, opts sebmc.Options) (*sebmc.Session, bool) {
	if p.budget < 0 || !sessionable(j.engine) {
		return nil, false
	}
	key := j.sessionKey()
	p.mu.Lock()
	if el, ok := p.entries[key]; ok {
		e := el.Value.(*sessionEntry)
		e.inUse++ // pins the entry: eviction skips inUse > 0
		p.ll.MoveToFront(el)
		p.mu.Unlock()
		<-e.ready
		if e.sess == nil {
			// The builder failed; undo the checkout and run cold.
			p.mu.Lock()
			e.inUse--
			p.mu.Unlock()
			return nil, false
		}
		return e.sess, true
	}
	// First sight: reserve the key, then build without the lock. The
	// deferred cleanup runs on every failed build — error return or
	// builder panic alike — so a placeholder never outlives a build
	// that produced no session: waiters wake to e.sess == nil and fail
	// over to cold runs, and the key is free for the next attempt.
	e := &sessionEntry{key: key, ready: make(chan struct{}), inUse: 1}
	p.entries[key] = p.ll.PushFront(e)
	p.mu.Unlock()

	built := false
	defer func() {
		if built {
			return
		}
		p.mu.Lock()
		if el, ok := p.entries[key]; ok && el.Value.(*sessionEntry) == e {
			p.ll.Remove(el)
			delete(p.entries, key)
		}
		p.mu.Unlock()
		close(e.ready)
	}()

	// Fault-injection site: a failed builder — here injected, in
	// production an encoder bug — must leave no placeholder behind and
	// must not take concurrent waiters down with it.
	if err := faultpoint.Hit("service.session.build"); err != nil {
		return nil, false
	}
	sess, err := sebmc.NewSession(j.sys, j.engine, opts)
	if err != nil { // unreachable given sessionable(), but stay safe
		return nil, false
	}
	e.sess = sess
	built = true
	close(e.ready)
	return sess, false
}

// release checks a session back in, refreshes its accounted footprint,
// and evicts idle least-recently-used sessions while over budget.
func (p *sessionPool) release(j *job, sess *sebmc.Session) {
	// MemBytesHint, not Stats: the hint is lock-free, while Stats would
	// serialize this finished request behind any concurrent solve still
	// running on the same session.
	bytes := sess.MemBytesHint()
	key := j.sessionKey()
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.entries[key]
	if !ok {
		return // evicted while running; drop the checkout on the floor
	}
	e := el.Value.(*sessionEntry)
	e.inUse--
	p.bytes += bytes - e.bytes
	e.bytes = bytes
	for p.bytes > p.budget {
		evicted := false
		for el := p.ll.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*sessionEntry)
			if e.inUse > 0 {
				continue
			}
			p.ll.Remove(el)
			delete(p.entries, e.key)
			p.bytes -= e.bytes
			evicted = true
			break
		}
		if !evicted {
			break // everything is checked out; nothing to drop
		}
	}
}

// discard checks a panicked session out of the pool for good: the
// entry is removed, its accounted bytes released, and the session is
// never handed to another request — its solver state is untrusted
// after an unwound stack. Concurrent holders of the same checkout get
// fast ErrSessionPoisoned answers from the Session itself and their
// release finds the entry already gone. Idempotent.
func (p *sessionPool) discard(j *job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.entries[j.sessionKey()]
	if !ok {
		return // already discarded or evicted
	}
	e := el.Value.(*sessionEntry)
	e.inUse--
	p.ll.Remove(el)
	delete(p.entries, e.key)
	p.bytes -= e.bytes
}

// shedIdle evicts idle least-recently-used sessions until at least
// want accounted bytes are freed (or nothing idle remains), returning
// (sessions shed, bytes freed). This is the overload ladder's middle
// rung: under memory pressure warm state goes first, fresh work is
// rejected only if shedding was not enough.
func (p *sessionPool) shedIdle(want int) (shed, freed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for freed < want {
		evicted := false
		for el := p.ll.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*sessionEntry)
			if e.inUse > 0 {
				continue
			}
			p.ll.Remove(el)
			delete(p.entries, e.key)
			p.bytes -= e.bytes
			freed += e.bytes
			shed++
			evicted = true
			break
		}
		if !evicted {
			break
		}
	}
	return shed, freed
}

// sessionSnapshot is one warm session's migratable state: the session
// identity, the model, and the proven-unreachable prefix. Solver
// internals (learned clauses, hopeless-state cache) do not serialize.
type sessionSnapshot struct {
	key    sessionKey
	sys    *sebmc.System
	proven int
}

// snapshot captures every clean, idle, worth-migrating session. Meant
// for the tail of a drain — after the workers have exited, every entry
// is built and idle, so Stats() never blocks behind a live solve.
func (p *sessionPool) snapshot() []sessionSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []sessionSnapshot
	for el := p.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*sessionEntry)
		if e.sess == nil || e.inUse > 0 || e.sess.Poisoned() {
			continue
		}
		st := e.sess.Stats()
		if st.ProvenUpTo < 0 {
			continue // no proven prefix: a migrated copy would start cold anyway
		}
		out = append(out, sessionSnapshot{key: e.key, sys: e.sess.System(), proven: st.ProvenUpTo})
	}
	return out
}

// adopt installs a session migrated from a draining peer: a fresh
// Session on the transferred model, pre-seeded with the sender's
// proven-unreachable prefix, filed under the sender's key. An existing
// entry for the key wins — it may hold richer solver state than the
// prefix-only transfer. Returns whether the session was installed.
func (p *sessionPool) adopt(key sessionKey, sys *sebmc.System, opts sebmc.Options, proven int) bool {
	if p.budget < 0 || !sessionable(key.Engine) || proven < 0 {
		return false
	}
	p.mu.Lock()
	if _, ok := p.entries[key]; ok {
		p.mu.Unlock()
		return false
	}
	// Same placeholder discipline as acquire: reserve the key, build
	// outside the lock, and never leave a dead placeholder behind.
	e := &sessionEntry{key: key, ready: make(chan struct{}), inUse: 1}
	p.entries[key] = p.ll.PushFront(e)
	p.mu.Unlock()

	sess, err := sebmc.NewSession(sys, key.Engine, opts)
	if err != nil {
		p.mu.Lock()
		if el, ok := p.entries[key]; ok && el.Value.(*sessionEntry) == e {
			p.ll.Remove(el)
			delete(p.entries, key)
		}
		p.mu.Unlock()
		close(e.ready)
		return false
	}
	sess.SeedProven(proven)
	e.sess = sess
	close(e.ready)
	p.mu.Lock()
	e.inUse--
	// Accounted bytes stay 0 until the first release refreshes the
	// MemBytesHint — the adopted session has done no solving yet.
	p.mu.Unlock()
	return true
}

// Bytes returns the pool's accounted retained solver memory.
func (p *sessionPool) Bytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// stats returns (live sessions, bytes, budget).
func (p *sessionPool) stats() (int, int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries), p.bytes, p.budget
}
