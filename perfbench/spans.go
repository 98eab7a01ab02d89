package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into the system: its name,
// start and end (nanoseconds since the recorder started), the span that
// caused it (0 for a root) and the op whose input it carried.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced mode: every method is a no-op.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span // ended spans, in end order
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	r  *recorder
	sp span
}

// start opens a span under parent (nil for a root).
func (r *recorder) start(name string, op int64, parent *open) *open {
	if r == nil {
		return nil
	}
	o := &open{r: r, sp: span{ID: r.ids.Add(1), Op: op, Name: name}}
	if parent != nil {
		o.sp.Parent = parent.sp.ID
	}
	o.sp.Start = time.Since(r.t0).Nanoseconds()
	return o
}

// end closes the span and stores it.
func (o *open) end() {
	if o == nil {
		return
	}
	o.sp.End = time.Since(o.r.t0).Nanoseconds()
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.sp)
	o.r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, op int64, parent *open, fn func()) {
	o := r.start(name, op, parent)
	fn()
	o.end()
}

// all returns the ended spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as a JSON array.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name   string
	Count  int
	SelfNS int64
}

// MeanMS is the mean self time per span in milliseconds.
func (l layerStat) MeanMS() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.SelfNS) / float64(l.Count) / 1e6
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]*layerStat {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			out[s.Name] = st
		}
		st.Count++
		st.SelfNS += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0] > curB:
			total += curB - curA
			curA, curB = x[0], x[1]
		case x[1] > curB:
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}
