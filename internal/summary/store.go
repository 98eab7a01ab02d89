package summary

import (
	"sync"

	"repro/internal/obs"
)

// Store is a concurrency-safe, content-addressed map from per-function
// Keys to portable analysis artifacts. One Store can back any number of
// programs — racecheck's batch mode points a whole corpus at a single
// store, so functions whose keys coincide across programs are analyzed
// once.
//
// Artifacts handed to Put and returned by Get are shared and must be
// treated as immutable; the relay decoder copies what it rehydrates.
//
// A Store value is a *handle* onto shared storage. View derives a
// tenant-namespaced handle onto the same underlying map: every key a
// view reads or writes is first rewritten through DeriveKey with a
// tenant label, so two tenants submitting byte-identical programs each
// get full within-tenant reuse while never colliding on — or even
// observing — each other's entries. Hit/miss/put accounting is kept per
// handle, which is what gives the service layer its per-tenant cache
// ratios; capacity, eviction and the resident-entry count are global to
// the shared storage.
//
// The default store is unbounded, which keeps hit/miss accounting a pure
// function of the load sequence (no eviction nondeterminism); a capacity
// can be opted into with NewStoreCap, evicting the oldest insertion first
// (deterministic FIFO) across all tenants.
type Store struct {
	inner *storeInner
	label string // tenant namespace; "" = root (keys pass through unchanged)

	// Per-handle counters, guarded by inner.mu.
	hits      int64
	misses    int64
	puts      int64
	mhpHits   int64
	mhpMisses int64
}

// storeInner is the storage shared by a root store and all its views.
type storeInner struct {
	mu  sync.Mutex
	cap int

	funcs map[Key]*FuncSummary
	order []Key // insertion order, for deterministic FIFO eviction
	mhp   map[Key]*MHPFacts

	evictions int64
}

// StoreStats is a snapshot of one handle's counters — lookups, inserts
// and MHP-fact lookups — plus the global residency (Entries, Evictions)
// of the shared storage. It is the metrics report's summary-store
// section as is.
type StoreStats = obs.SummaryStoreStats

// NewStore returns an empty, unbounded store.
func NewStore() *Store {
	return &Store{inner: &storeInner{funcs: make(map[Key]*FuncSummary), mhp: make(map[Key]*MHPFacts)}}
}

// NewStoreCap returns a store that holds at most n function summaries
// (n <= 0 means unbounded), evicting the oldest insertion when full.
func NewStoreCap(n int) *Store {
	s := NewStore()
	s.inner.cap = n
	return s
}

// View returns a tenant-namespaced handle onto the same underlying
// storage: keys are rewritten through DeriveKey(k, "tenant\x00"+label),
// so views of distinct labels can never collide with each other or with
// the root namespace, and a view of the same label always addresses the
// same entries. The returned handle has fresh counters — its Stats are
// the tenant's own traffic. View("") returns a fresh-countered handle
// onto the root namespace.
func (s *Store) View(label string) *Store {
	v := &Store{inner: s.inner}
	if label != "" {
		v.label = "tenant\x00" + label
	}
	return v
}

// Label returns the tenant label this handle namespaces keys under
// ("" for the root namespace).
func (s *Store) Label() string {
	const prefix = "tenant\x00"
	if len(s.label) > len(prefix) {
		return s.label[len(prefix):]
	}
	return ""
}

// key maps a caller key into this handle's namespace.
func (s *Store) key(k Key) Key {
	if s.label == "" {
		return k
	}
	return DeriveKey(k, s.label)
}

// Get returns the function summary stored under k, if any.
func (s *Store) Get(k Key) (*FuncSummary, bool) {
	k = s.key(k)
	s.inner.mu.Lock()
	defer s.inner.mu.Unlock()
	sum, ok := s.inner.funcs[k]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return sum, ok
}

// Put stores a function summary under k. Re-putting an existing key
// refreshes the value without consuming capacity.
func (s *Store) Put(k Key, sum *FuncSummary) {
	k = s.key(k)
	in := s.inner
	in.mu.Lock()
	defer in.mu.Unlock()
	s.puts++
	if _, exists := in.funcs[k]; exists {
		in.funcs[k] = sum
		return
	}
	if in.cap > 0 && len(in.funcs) >= in.cap {
		// FIFO: drop insertion-order entries until there is room. Keys
		// already re-put (and so refreshed) were never re-appended, so the
		// order slice can hold stale keys; skip those.
		for len(in.order) > 0 && len(in.funcs) >= in.cap {
			victim := in.order[0]
			in.order = in.order[1:]
			if _, ok := in.funcs[victim]; ok {
				delete(in.funcs, victim)
				in.evictions++
			}
		}
	}
	in.funcs[k] = sum
	in.order = append(in.order, k)
}

// GetMHP returns the MHP facts stored under the program key k, if any.
func (s *Store) GetMHP(k Key) (*MHPFacts, bool) {
	k = s.key(k)
	s.inner.mu.Lock()
	defer s.inner.mu.Unlock()
	f, ok := s.inner.mhp[k]
	if ok {
		s.mhpHits++
	} else {
		s.mhpMisses++
	}
	return f, ok
}

// PutMHP stores MHP facts under the program key k. MHP facts are whole-
// program and few; they are not subject to the capacity bound.
func (s *Store) PutMHP(k Key, f *MHPFacts) {
	k = s.key(k)
	s.inner.mu.Lock()
	defer s.inner.mu.Unlock()
	s.inner.mhp[k] = f
}

// Stats returns a snapshot of this handle's counters (global residency
// and evictions are shared across handles).
func (s *Store) Stats() StoreStats {
	s.inner.mu.Lock()
	defer s.inner.mu.Unlock()
	return StoreStats{
		Hits:      s.hits,
		Misses:    s.misses,
		Puts:      s.puts,
		Evictions: s.inner.evictions,
		Entries:   int64(len(s.inner.funcs)),
		MHPHits:   s.mhpHits,
		MHPMisses: s.mhpMisses,
	}
}
