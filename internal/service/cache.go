package service

// The verdict cache: finished answers keyed by what was asked — model
// content hash, bound, semantics, engine, deepen, CNF mode — behind an
// LRU byte budget. Bytes are accounted the same honest way as the
// solvers' ClauseDBBytes/MemBytes: every retained allocation is
// counted (key strings, witness text, entry struct, list and map
// bookkeeping), so the configured budget is a real bound on resident
// verdict memory, not an entry count with a guessed multiplier.

import (
	"container/list"
	"hash/fnv"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/faultpoint"
)

// verdictKey identifies one answerable question: the warm-session
// identity plus the bound and the deepen flag. Its JSON form is the
// replicate and repair wire's key; decoding validates the engine,
// semantics and schedule names.
type verdictKey struct {
	sessionKey
	Bound  int  `json:"bound"`
	Deepen bool `json:"deepen,omitempty"`
}

// entryOverhead is the fixed per-entry cost beyond the variable-length
// strings: the cacheEntry struct (key copy, JobResult scalars and
// string headers), the list.Element, and an amortized map bucket slot.
const entryOverhead = 320

// entryBytes is the honest retained size of one entry.
func entryBytes(k verdictKey, v JobResult) int {
	return entryOverhead + len(k.Hash) + len(v.Witness) + len(v.Certificate) +
		len(v.DecidedBy) + len(v.Status)
}

// cacheEntry holds one answer by value. Only decided results are
// cached; UNKNOWN depends on the request's budget, not the question.
type cacheEntry struct {
	key verdictKey
	v   JobResult
	sz  int
}

// digestRanges partitions the key space for anti-entropy: entries are
// bucketed by the first hex character of the model hash, so two shards
// comparing digests localize a divergence to a sixteenth of the cache
// before pulling anything.
const digestRanges = 16

// rangeOf maps a key to its digest bucket.
func rangeOf(k verdictKey) int {
	if len(k.Hash) == 0 {
		return 0
	}
	c := k.Hash[0]
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c) % digestRanges
	}
}

// identityHash is an entry's anti-entropy fingerprint: the question
// plus the deterministic half of the answer (status, depth). Run
// statistics (conflicts, peak bytes, deciding engine) are deliberately
// excluded — two shards that independently solved the same question
// hold entries with different stats but the same identity, and repair
// must see them as already converged.
func identityHash(k verdictKey, v JobResult) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(k.Hash))
	buf := make([]byte, 0, 64)
	buf = strconv.AppendInt(buf, int64(k.Bound), 10)
	buf = append(buf, '|')
	buf = append(buf, byte(k.Engine), byte(k.Sem), byte(k.Sched))
	buf = append(buf, boolByte(k.Deepen), boolByte(k.PG), '|')
	buf = append(buf, v.Status...)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(v.FoundAt), 10)
	_, _ = h.Write(buf)
	return h.Sum64()
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// verdictCache is a mutex-guarded LRU over a byte budget. budget < 0
// disables it entirely. Alongside the entries it maintains an
// incremental per-range digest (count + XOR of identity hashes) that
// gossip piggybacks for anti-entropy: insert XORs an entry in, evict
// XORs it out, so reading the digest is O(ranges), never a scan.
type verdictCache struct {
	mu      sync.Mutex
	budget  int
	bytes   int
	ll      *list.List // front = most recently used
	entries map[verdictKey]*list.Element
	digests [digestRanges]cluster.RangeDigest
}

func newVerdictCache(budget int) *verdictCache {
	return &verdictCache{
		budget:  budget,
		ll:      list.New(),
		entries: make(map[verdictKey]*list.Element),
	}
}

// digestToggleLocked folds an entry into or out of its range digest
// (XOR is its own inverse, so one body serves insert and remove).
func (c *verdictCache) digestToggleLocked(k verdictKey, v JobResult, insert bool) {
	r := rangeOf(k)
	c.digests[r].Hash ^= identityHash(k, v)
	if insert {
		c.digests[r].Count++
	} else {
		c.digests[r].Count--
	}
}

// digest snapshots the per-range summaries for gossip.
func (c *verdictCache) digest() []cluster.RangeDigest {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cluster.RangeDigest, digestRanges)
	copy(out, c.digests[:])
	return out
}

// rangeEntries returns copies of every entry whose key falls in one of
// the requested ranges — the repair-pull payload. Does not touch
// recency: answering a peer's anti-entropy pull is not a use.
func (c *verdictCache) rangeEntries(ranges map[int]bool) []cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []cacheEntry
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if ranges[rangeOf(e.key)] {
			out = append(out, *e)
		}
	}
	return out
}

// has reports presence without promoting the entry.
func (c *verdictCache) has(k verdictKey) bool {
	if c.budget < 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	return ok
}

func (c *verdictCache) get(k verdictKey) (JobResult, bool) {
	if c.budget < 0 {
		return JobResult{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return JobResult{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).v, true
}

func (c *verdictCache) put(k verdictKey, v JobResult) {
	if c.budget < 0 {
		return
	}
	// Fault-injection site: the cache is an accelerator, so an injected
	// failure degrades to not caching — the verdict is still served —
	// while an injected panic exercises the worker's containment.
	if err := faultpoint.Hit("service.cache.put"); err != nil {
		return
	}
	// The entry is the answer, not how one requester was served.
	v.Cached, v.SessionHit, v.ElapsedMS = false, false, 0
	sz := entryBytes(k, v)
	if sz > c.budget {
		return // a single oversized verdict would evict everything
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*cacheEntry)
		c.digestToggleLocked(e.key, e.v, false)
		c.bytes += sz - e.sz
		e.v, e.sz = v, sz
		c.ll.MoveToFront(el)
		c.digestToggleLocked(k, v, true)
	} else {
		e := &cacheEntry{key: k, v: v, sz: sz}
		c.entries[k] = c.ll.PushFront(e)
		c.bytes += sz
		c.digestToggleLocked(k, v, true)
	}
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.sz
		c.digestToggleLocked(e.key, e.v, false)
	}
}

// stats returns (entries, bytes, budget).
func (c *verdictCache) stats() (int, int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes, c.budget
}

// Bytes returns the cache's accounted retained memory.
func (c *verdictCache) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
