// Package cache is a size-bounded, least-recently-used result cache for
// the referee service. Keys are content addresses — in the daemon they
// are canonical wire.RunSpec encodings, so two requests share an entry
// iff they describe bit-identical executions — and values are opaque
// byte slices (encoded result payloads), optionally led by a tag byte of
// the caller's that GetTagged matches.
//
// The determinism contract is what makes memoization correct here:
// a seed-only spec fully determines its transcript, so serving a stored
// result is indistinguishable from re-executing. The cache therefore
// needs no invalidation story at all — entries only ever leave under
// byte-budget pressure, oldest-use first.
//
// The implementation is a classic map + intrusive doubly-linked list
// under one mutex: O(1) Get/Put, and the per-entry accounting charges
// key and value bytes plus a fixed overhead so the configured budget
// approximates real memory, not just payload mass.
package cache

import "sync"

// entryOverhead approximates the per-entry bookkeeping cost (map slot,
// list node, headers) charged against the byte budget on top of the key
// and value lengths.
const entryOverhead = 64

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count Get outcomes over the cache's lifetime.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries removed under byte-budget pressure
	// (replacing an existing key is not an eviction).
	Evictions int64 `json:"evictions"`
	// Entries and Bytes describe current occupancy; Bytes includes the
	// per-entry overhead charge, so Bytes <= MaxBytes always holds.
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// node is one entry in the intrusive LRU list. The list is circular
// with a sentinel root: root.next is the most recently used entry,
// root.prev the least.
type node struct {
	key        string
	val        []byte
	prev, next *node
}

// LRU is a thread-safe least-recently-used byte cache. The zero value
// is not usable; construct with New.
type LRU struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[string]*node
	root    node // sentinel

	hits, misses, evictions int64
}

// New builds an LRU holding at most maxBytes of charged entry mass.
// maxBytes <= 0 yields a cache that stores nothing (every Put is a
// no-op, every Get a miss) — callers can keep one code path and treat
// "disabled" as a zero budget.
func New(maxBytes int64) *LRU {
	c := &LRU{max: maxBytes, entries: make(map[string]*node)}
	c.root.prev = &c.root
	c.root.next = &c.root
	return c
}

// cost is the byte-budget charge for one entry.
func cost(key string, val []byte) int64 {
	return int64(len(key)) + int64(len(val)) + entryOverhead
}

// unlink removes n from the use list.
func (c *LRU) unlink(n *node) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}

// pushFront inserts n as the most recently used entry.
func (c *LRU) pushFront(n *node) {
	n.prev = &c.root
	n.next = c.root.next
	n.prev.next = n
	n.next.prev = n
}

// Get returns the value stored under key and marks it most recently
// used. The returned slice is the stored one — callers must not mutate
// it (the daemon only ever writes it to responses).
func (c *LRU) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// GetTagged is Get for callers that tag their values with a leading byte
// and can use only values carrying tag. A value under key with any other
// first byte does not answer the lookup: it counts as a miss and keeps
// its recency, exactly as if key were absent.
func (c *LRU) GetTagged(key string, tag byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[key]
	if !ok || len(n.val) == 0 || n.val[0] != tag {
		c.misses++
		return nil, false
	}
	c.hits++
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// Contains reports whether key is cached without touching recency or
// the hit/miss counters.
func (c *LRU) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Put stores val under key as the most recently used entry, replacing
// any previous value, then evicts least-recently-used entries until the
// byte budget holds. A single entry larger than the whole budget is not
// stored at all.
func (c *LRU) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val)
}

// PutIfAbsent stores val under key only when the key is not already
// cached, and reports whether it stored. The daemon uses it to record
// batch summaries without ever downgrading a richer entry (one that
// also carries a transcript) stored under the same spec address.
func (c *LRU) PutIfAbsent(key string, val []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[key]; exists {
		return false
	}
	c.putLocked(key, val)
	return true
}

func (c *LRU) putLocked(key string, val []byte) {
	charge := cost(key, val)
	if charge > c.max {
		return
	}
	if n, ok := c.entries[key]; ok {
		c.bytes += int64(len(val)) - int64(len(n.val))
		n.val = val
		c.unlink(n)
		c.pushFront(n)
	} else {
		n := &node{key: key, val: val}
		c.entries[key] = n
		c.pushFront(n)
		c.bytes += charge
	}
	for c.bytes > c.max {
		oldest := c.root.prev
		c.unlink(oldest)
		delete(c.entries, oldest.key)
		c.bytes -= cost(oldest.key, oldest.val)
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		MaxBytes:  c.max,
	}
}
