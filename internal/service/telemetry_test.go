package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestFreshTenantZeroTrafficRatios pins the zero-traffic guard: a tenant
// that exists but has produced no cache traffic reports a hit ratio of
// exactly 0 — never NaN — and the metrics document still marshals
// (encoding/json rejects NaN, so a regression here fails both
// assertions).
func TestFreshTenantZeroTrafficRatios(t *testing.T) {
	e := newTestEngine(t)
	e.tenant("fresh") // materialize an empty tenant, no traffic

	m := e.Metrics()
	if len(m.Tenants) != 1 || m.Tenants[0].Tenant != "fresh" {
		t.Fatalf("tenants = %+v, want one entry for fresh", m.Tenants)
	}
	tn := m.Tenants[0]
	if tn.CacheHitRatio != 0 {
		t.Errorf("fresh tenant cache hit ratio = %v, want 0", tn.CacheHitRatio)
	}
	b, err := m.Marshal()
	if err != nil {
		t.Fatalf("Marshal with zero-traffic tenant: %v", err)
	}
	for _, bad := range []string{"NaN", `"cache_hit_ratio":null`} {
		if bytes.Contains(b, []byte(bad)) {
			t.Errorf("metrics JSON contains %q:\n%s", bad, b)
		}
	}

	// The Prometheus rendering of the same document must expose the 0.
	text := string(m.Prometheus())
	if !strings.Contains(text, `chimerad_tenant_cache_hit_ratio{tenant="fresh"} 0`) {
		t.Errorf("exposition missing zero hit ratio:\n%s", text)
	}
}

// promSeries parses a Prometheus text exposition into series → value,
// failing the test on any malformed non-comment line.
func promSeries(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %q: bad value: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// counterRE matches the series whose values must never decrease between
// scrapes: explicit *_total counters plus histogram _bucket/_sum/_count.
var counterRE = regexp.MustCompile(`_total(\{|$)|_bucket\{|_sum\{|_count\{`)

// TestMetricsMonotonicUnderLoad hammers a live server with 32 concurrent
// submitters while a scraper reads /metrics, asserting that (a) every
// exposition parses line-by-line throughout and (b) no counter series
// ever decreases between consecutive scrapes. Run under -race this also
// exercises the histogram and gauge paths for data races.
func TestMetricsMonotonicUnderLoad(t *testing.T) {
	ts, c, _ := newTestServer(t)

	const submitters = 32
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := &JobSpec{
				Kind:   JobRecord,
				Tenant: fmt.Sprintf("tenant-%d", i%4),
				Name:   fmt.Sprintf("load-%d", i),
				Source: cleanSrc,
				Seed:   uint64(i + 1),
			}
			v, err := c.Submit(spec)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if _, err := c.Wait(v.ID); err != nil {
				t.Errorf("wait %d: %v", i, err)
			}
		}(i)
	}

	// Scrape continuously until all submitters finish, then once more so
	// the final deltas are covered too.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	prev := map[string]float64{}
	scrape := func() {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Errorf("scrape: %v", err)
			return
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("scrape Content-Type = %q", ct)
		}
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		cur := promSeries(t, body.String())
		for series, v := range cur {
			if !counterRE.MatchString(series) {
				continue
			}
			if p, ok := prev[series]; ok && v < p {
				t.Errorf("counter %s decreased: %v -> %v", series, p, v)
			}
		}
		prev = cur
	}
	for {
		scrape()
		select {
		case <-done:
			scrape()
			if len(prev) == 0 {
				t.Fatal("no series scraped")
			}
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestMaskedMetricsDeterminism runs the same job sequence on two fresh
// engines and asserts the masked metrics documents are byte-equal — the
// service analogue of the Report.MaskWall byte-identity pin: masking
// removes load- and wall-dependent state, everything structural must
// already be deterministic.
func TestMaskedMetricsDeterminism(t *testing.T) {
	runOnce := func() *obs.ServiceMetrics {
		e := newTestEngine(t)
		submitAndAwait(t, e, &JobSpec{Kind: JobRecord, Tenant: "acme", Name: "clean", Source: cleanSrc, Seed: 5})
		submitAndAwait(t, e, genSpec("acme", "prodcons:1:small"))
		e.Drain(time.Minute)
		return e.Metrics()
	}
	a, b := runOnce(), runOnce()
	a.Mask()
	b.Mask()
	ja, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Errorf("masked metrics differ across identical runs:\n--- a:\n%s\n--- b:\n%s", ja, jb)
	}
	if !json.Valid(ja) {
		t.Error("masked metrics not valid JSON")
	}
}

// TestDebugTracesRing pins the /debug/traces contract on a two-record
// ring after three finished jobs: a finished job's trace is retained by
// the time Wait returns, the list is newest first, the oldest record is
// evicted, a retained record is found by job ID and by trace ID, and an
// evicted or unknown ID is a 404.
func TestDebugTracesRing(t *testing.T) {
	eng := NewEngine(EngineConfig{Shards: 1, SpoolDir: t.TempDir(), TraceRing: 2})
	ts := httptest.NewServer(NewServer(eng))
	defer func() {
		ts.Close()
		eng.Drain(time.Minute)
	}()
	c := NewClient(ts.URL)

	traceIDs := []string{"trace-a", "trace-b", "trace-c"}
	var jobIDs []string
	for _, tid := range traceIDs {
		accepted, err := c.Submit(&JobSpec{Kind: JobAnalyze, TraceID: tid, Request: inlineReq("racy.mc", racySrc, nil)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		id := accepted.ID
		if v, err := c.Wait(id); err != nil || v.State != StateDone {
			t.Fatalf("Wait %s: %+v, %v", id, v, err)
		}
		jobIDs = append(jobIDs, id)
		// The trace is in the ring, with the job's terminal state, before
		// the job is observed to finish.
		if rec, ok := eng.Trace(id); !ok || rec.State != StateDone {
			t.Fatalf("job %s finished but its trace is %+v (found %v), want state done", id, rec, ok)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Traces []TraceRecord `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rec := range list.Traces {
		got = append(got, rec.JobID+"/"+rec.TraceID)
		if rec.Spans == nil {
			t.Errorf("trace %s has no span tree", rec.TraceID)
		}
	}
	want := []string{jobIDs[2] + "/trace-c", jobIDs[1] + "/trace-b"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("/debug/traces = %v, want newest first %v", got, want)
	}

	if rec, err := c.Trace(jobIDs[1]); err != nil || rec.TraceID != "trace-b" {
		t.Errorf("Trace(job %s) = %+v, %v; want trace-b", jobIDs[1], rec, err)
	}
	if rec, err := c.Trace("trace-c"); err != nil || rec.JobID != jobIDs[2] {
		t.Errorf("Trace(trace-c) = %+v, %v; want job %s", rec, err, jobIDs[2])
	}
	for _, id := range []string{jobIDs[0], "trace-a", "no-such-trace"} {
		if _, err := c.Trace(id); err == nil || !strings.Contains(err.Error(), "404") {
			t.Errorf("Trace(%s) error = %v, want 404", id, err)
		}
	}
}
