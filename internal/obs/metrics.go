package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/weaklock"
)

// Schema is the metrics report schema version. Bump it whenever a field
// is renamed, retyped, or changes meaning; adding fields is
// backward-compatible and does not require a bump.
//
// v2: Cache.Stats() split fresh computations into misses and partial
// hits (incremental analyses that reused stored function summaries), so
// the cache section's miss count changed meaning. The summary_store
// section it also added is gone again: no producer ever filled it, so
// its removal changes no rendered byte and needs no bump.
const Schema = 2

// Attr is one span or stage attribute: an integer by default, a string
// when IsStr is set.
type Attr struct {
	Key   string
	Int   int64
	Str   string
	IsStr bool
}

// AttrMap is an ordered attribute list that marshals as a JSON object in
// insertion order (deterministic: attributes are set by straight-line
// pipeline code).
type AttrMap []Attr

func (m AttrMap) set(a Attr) AttrMap {
	for i := range m {
		if m[i].Key == a.Key {
			m[i] = a
			return m
		}
	}
	return append(m, a)
}

// Get returns the integer attribute for key (0 when absent).
func (m AttrMap) Get(key string) int64 {
	for _, a := range m {
		if a.Key == key && !a.IsStr {
			return a.Int
		}
	}
	return 0
}

// MarshalJSON renders the attributes as an object, keys in insertion
// order.
func (m AttrMap) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, a := range m {
		if i > 0 {
			buf.WriteByte(',')
		}
		k, err := json.Marshal(a.Key)
		if err != nil {
			return nil, err
		}
		buf.Write(k)
		buf.WriteByte(':')
		if a.IsStr {
			v, err := json.Marshal(a.Str)
			if err != nil {
				return nil, err
			}
			buf.Write(v)
		} else {
			fmt.Fprintf(&buf, "%d", a.Int)
		}
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// UnmarshalJSON parses an attribute object back into the map, so reports
// round-trip through JSON. Go's decoder hands object keys in source
// order only via a token walk, which this does.
func (m *AttrMap) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok != json.Delim('{') {
		return fmt.Errorf("obs: attrs must be an object, got %v", tok)
	}
	out := AttrMap{}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return err
		}
		key := keyTok.(string)
		valTok, err := dec.Token()
		if err != nil {
			return err
		}
		switch v := valTok.(type) {
		case json.Number:
			n, err := v.Int64()
			if err != nil {
				return fmt.Errorf("obs: attr %q: %w", key, err)
			}
			out = out.set(Attr{Key: key, Int: n})
		case string:
			out = out.set(Attr{Key: key, Str: v, IsStr: true})
		default:
			return fmt.Errorf("obs: attr %q: unsupported value %v", key, valTok)
		}
	}
	if _, err := dec.Token(); err != nil {
		return err
	}
	*m = out
	return nil
}

// Stage is one flattened span in the metrics report: its slash-joined
// path in the span tree, wall time, and attributes.
type Stage struct {
	Path   string  `json:"path"`
	WallNS int64   `json:"wall_ns"`
	Attrs  AttrMap `json:"attrs,omitempty"`
}

// Stages flattens the tracer's span forest depth-first into stage rows.
// The order is the deterministic span start order; only WallNS varies
// between runs.
func (t *Tracer) Stages() []Stage {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Stage
	var walk func(prefix string, sp *Span)
	walk = func(prefix string, sp *Span) {
		path := sp.Name
		if prefix != "" {
			path = prefix + "/" + sp.Name
		}
		out = append(out, Stage{Path: path, WallNS: sp.WallNS(), Attrs: sp.Attrs})
		for _, c := range sp.Children {
			walk(path, c)
		}
	}
	for _, r := range t.roots {
		walk("", r)
	}
	return out
}

// Site is the per-weak-lock-site counter row of the metrics report. All
// values come from the simulated run and are deterministic.
type Site struct {
	ID   int    `json:"id"`
	Kind string `json:"kind"`
	Name string `json:"name"`

	// Acquires counts non-reentrant (order-logged when recording)
	// acquisitions; ReentrantAcquires the nested re-acquisitions that
	// bypass gating and logging. Releases/ReentrantReleases mirror them.
	Acquires          int64 `json:"acquires"`
	ReentrantAcquires int64 `json:"reentrant_acquires,omitempty"`
	Releases          int64 `json:"releases"`
	ReentrantReleases int64 `json:"reentrant_releases,omitempty"`

	// Forced counts forced (timeout or replay-injected) releases.
	Forced int64 `json:"forced,omitempty"`

	// Contended counts acquisitions that blocked first; StallCycles is
	// the simulated time those acquisitions spent blocked.
	Contended   int64 `json:"contended,omitempty"`
	StallCycles int64 `json:"stall_cycles,omitempty"`
}

// WeakLocks is the weak-lock section of the metrics report.
type WeakLocks struct {
	// Sites are the per-lock rows, sorted by lock ID.
	Sites []Site `json:"sites"`

	// Totals over all sites.
	Acquires int64 `json:"acquires"`
	Releases int64 `json:"releases"`
	Forced   int64 `json:"forced"`
	Timeouts int64 `json:"timeouts"`

	// OrderLogEntries is the number of weak-lock records in the recorded
	// order log; AcquireOrderEntries its EvWLAcquire share. By the
	// runtime's accounting invariant OrderLogEntries equals
	// Acquires+Releases+Forced and AcquireOrderEntries equals Acquires.
	OrderLogEntries     int64 `json:"order_log_entries"`
	AcquireOrderEntries int64 `json:"acquire_order_entries"`
}

// WeakLocksFrom builds the weak-lock section from a run's per-site stats
// (vm.Result.WLSites) and its lock table. Order-log fields are left for
// the caller, which owns the log.
func WeakLocksFrom(table *weaklock.Table, sites []weaklock.SiteStats) *WeakLocks {
	wl := &WeakLocks{Sites: make([]Site, 0, len(sites))}
	for i, st := range sites {
		d := table.Lock(weaklock.ID(i))
		row := Site{
			ID:                i,
			Acquires:          st.Acquires,
			ReentrantAcquires: st.ReentrantAcquires,
			Releases:          st.Releases,
			ReentrantReleases: st.ReentrantReleases,
			Forced:            st.Forced,
			Contended:         st.Contended,
			StallCycles:       st.StallCycles,
		}
		if d != nil {
			row.Kind = d.Kind.String()
			row.Name = d.Name
		}
		wl.Sites = append(wl.Sites, row)
		wl.Acquires += st.Acquires
		wl.Releases += st.Releases
		wl.Forced += st.Forced
	}
	sort.Slice(wl.Sites, func(i, j int) bool { return wl.Sites[i].ID < wl.Sites[j].ID })
	return wl
}

// Events is the event-sink runtime section: how many observation events
// the VM emitted and in how many batch drains, with the per-kind
// breakdown an EventCounter sink observed.
type Events struct {
	Emitted int64 `json:"emitted"`
	Batches int64 `json:"batches"`
	Reads   int64 `json:"reads"`
	Writes  int64 `json:"writes"`
	Syncs   int64 `json:"syncs"`
}

// LogStreams is the CHIMLOG2 stream section, from the recording's
// LogWriter: per-stream chunk/record counts, raw (uncompressed) payload
// bytes, and compressed wire bytes including the 13-byte chunk headers.
// InputBytes+OrderBytes plus the 8-byte magic and 13-byte end marker is
// the whole stream (TotalBytes).
type LogStreams struct {
	TotalBytes    int64 `json:"total_bytes"`
	InputChunks   int64 `json:"input_chunks"`
	OrderChunks   int64 `json:"order_chunks"`
	InputRecords  int64 `json:"input_records"`
	OrderRecords  int64 `json:"order_records"`
	InputRawBytes int64 `json:"input_raw_bytes"`
	OrderRawBytes int64 `json:"order_raw_bytes"`
	InputBytes    int64 `json:"input_bytes"`
	OrderBytes    int64 `json:"order_bytes"`
}

// CacheStats is the analysis-cache section: whole-program hits and
// misses. PartialHits is always 0; it once counted misses that reused
// stored function summaries, and stays so readers of the field keep
// decoding.
type CacheStats struct {
	Hits        int64 `json:"hits"`
	PartialHits int64 `json:"partial_hits"`
	Misses      int64 `json:"misses"`
}

// Checker is the dynamic race checker section. WallNS is real time
// (masked by MaskWall); Races is deterministic.
type Checker struct {
	Name   string `json:"name"`
	Races  int    `json:"races"`
	WallNS int64  `json:"wall_ns"`
}

// Report is the aggregated metrics document one observed pipeline run
// produces. Marshal renders it canonically; MaskWall zeroes every
// wall-clock field, after which two runs of the same program and
// configuration must render byte-identically regardless of analysis
// parallelism.
type Report struct {
	Schema    int         `json:"schema"`
	Program   string      `json:"program"`
	Config    string      `json:"config,omitempty"`
	Stages    []Stage     `json:"stages,omitempty"`
	WeakLocks *WeakLocks  `json:"weak_locks,omitempty"`
	Events    *Events     `json:"events,omitempty"`
	Log       *LogStreams `json:"log,omitempty"`
	Cache     *CacheStats `json:"cache,omitempty"`
	Checker   *Checker    `json:"checker,omitempty"`
}

// MaskWall zeroes every wall-clock (nondeterministic) field in place:
// stage durations and the checker's wall share. Everything else in the
// report derives from the simulated run and the analysis, which are
// deterministic.
func (r *Report) MaskWall() {
	for i := range r.Stages {
		r.Stages[i].WallNS = 0
	}
	if r.Checker != nil {
		r.Checker.WallNS = 0
	}
}

// Marshal renders the report as stable, indented JSON with a trailing
// newline.
func (r *Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// RowMetrics is the per-stage+per-site metrics block embedded in the
// benchmark harness's JSON rows. Every field is derived from the
// simulated run, so the block is deterministic and safe to pin in
// checked-in BENCH_PR*.json files; wall-clock values stay in the row's
// existing *_wall_ns fields.
type RowMetrics struct {
	Schema    int        `json:"schema"`
	Makespans Makespans  `json:"makespans"`
	WeakLocks *WeakLocks `json:"weak_locks"`
	Events    *Events    `json:"events"`
	Log       LogStreams `json:"log"`
}

// Makespans are the simulated cycle totals of the measured stages.
type Makespans struct {
	Native int64 `json:"native"`
	Record int64 `json:"record"`
	Replay int64 `json:"replay"`
}
