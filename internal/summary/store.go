package summary

import "sync"

// Store is a concurrency-safe, unbounded, content-addressed map from
// per-function Keys to portable RELAY summaries. One Store can back any
// number of programs, so functions whose keys coincide across programs
// are analyzed once.
//
// Summaries handed to Put and returned by Get are shared and must be
// treated as immutable; the relay decoder copies what it rehydrates.
type Store struct {
	mu    sync.Mutex
	funcs map[Key]*FuncSummary
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{funcs: make(map[Key]*FuncSummary)}
}

// Get returns the function summary stored under k, if any.
func (s *Store) Get(k Key) (*FuncSummary, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum, ok := s.funcs[k]
	return sum, ok
}

// Put stores a function summary under k, replacing any earlier one.
func (s *Store) Put(k Key, sum *FuncSummary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.funcs[k] = sum
}
