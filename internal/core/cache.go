package core

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// Cache is a concurrency-safe, content-addressed store of analysis
// artifacts. The key is the program identity — SHA-256 of (name, source)
// — which covers every stage input: parse, points-to, callgraph, RELAY
// summaries, the MHP refinement memoized on the Program, and the symbolic
// bounds derived from its Info. One Analysis artifact is therefore
// computed once per distinct program and shared read-only across all
// instrumentation configs and harness workers; only the per-config
// instrument → record → replay tail runs again.
//
// Loads of the same key are single-flighted: concurrent callers block on
// one computation instead of racing to duplicate it. The worker count
// does not enter the key because the parallel RELAY schedule is proven
// (by the determinism test layer) to produce byte-identical artifacts.
type Cache struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]*cacheEntry

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	once sync.Once
	prog *Program
	err  error
}

// NewCache returns an empty analysis cache: every whole-program miss is
// a full recomputation.
func NewCache() *Cache {
	return &Cache{entries: make(map[[sha256.Size]byte]*cacheEntry)}
}

// Load returns the analyzed program for (name, src), computing it with
// LoadWith(o) on first use and returning the shared artifact on every
// subsequent call. On a hit o.Tracer records nothing (the stages never
// ran); the hit shows up in Stats. A nil cache loads afresh on every
// call, so one-shot callers and cached ones share this entry point.
func (c *Cache) Load(name, src string, o LoadOptions) (*Program, error) {
	if c == nil {
		return LoadWith(name, src, o)
	}
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(src))
	var key [sha256.Size]byte
	h.Sum(key[:0])

	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	fresh := false
	e.once.Do(func() {
		fresh = true
		e.prog, e.err = LoadWith(name, src, o)
	})
	if fresh {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return e.prog, e.err
}

// Stats reports whole-program hits and misses so far.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
