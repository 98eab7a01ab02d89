package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
)

// update regenerates the golden files:
// go test ./internal/bench/harness -run TestJSONSchemaGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// The machine-readable export schema — field names, nesting, and row
// order — is pinned by a golden file so accidental schema drift shows up
// as a test diff, not as a surprise to downstream consumers of
// BENCH_PR*.json. Values here are synthetic; only the shape matters.
func TestJSONSchemaGolden(t *testing.T) {
	rep := &JSONReport{
		Parallel:      4,
		Workers:       4,
		HarnessWallNS: 2_000_000,
		Entries: []JSONEntry{
			// Deliberately out of canonical order: RenderJSON must sort.
			{
				Bench: "radix", Config: "instr",
				StaticPairs: 3, InstrumentedPairs: 3, PrunedPairs: 0, WeakLocks: 2,
				AnalysisWallNS: 1_000_000,
				RecordOverhead: 1.25, ReplayOverhead: 1.10, ReplayMatches: true,
				RecordLogBytes: 2_048, OrderLogBytes: 512,
				RecordWallNS: 900_000, ReplayWallNS: 700_000, CheckerWallNS: 300_000,
				CheckerRaces: 0, CheckersAgree: true,
				Certified: true, CertifyWallNS: 400_000,
			},
			{
				Bench: "aget", Config: "instr+mhp",
				StaticPairs: 5, InstrumentedPairs: 3, PrunedPairs: 2,
				PrunedBy:       map[string]int{"pre-fork": 1, "read-only": 1},
				WeakLocks:      4,
				AnalysisWallNS: 1_500_000,
				RecordOverhead: 1.50, ReplayOverhead: 1.20, ReplayMatches: true,
				RecordLogBytes: 4_096, OrderLogBytes: 1_024,
				RecordWallNS: 1_100_000, ReplayWallNS: 800_000, CheckerWallNS: 350_000,
				CheckerRaces: 0, CheckersAgree: true,
				Certified: true, CertifyWallNS: 500_000,
			},
			{
				Bench: "aget", Config: "all",
				StaticPairs: 7, InstrumentedPairs: 7, PrunedPairs: 0, WeakLocks: 6,
				AnalysisWallNS: 1_500_000,
				RecordOverhead: 1.75, ReplayOverhead: 1.30, ReplayMatches: true,
				RecordLogBytes: 8_192, OrderLogBytes: 2_048,
				RecordWallNS: 1_300_000, ReplayWallNS: 900_000, CheckerWallNS: 400_000,
				CheckerRaces: 0, CheckersAgree: true,
				Certified: true, CertifyWallNS: 600_000,
				Metrics: &obs.RowMetrics{
					Schema:    obs.Schema,
					Makespans: obs.Makespans{Native: 10_000, Record: 17_500, Replay: 13_000},
					WeakLocks: &obs.WeakLocks{
						Sites: []obs.Site{
							{ID: 0, Kind: "func", Name: "clique0", Acquires: 40, Releases: 40, Contended: 3, StallCycles: 900},
							{ID: 1, Kind: "instr", Name: "site1", Acquires: 10, Releases: 10, Forced: 1},
						},
						Acquires: 50, Releases: 50, Forced: 1, Timeouts: 1,
						OrderLogEntries: 101, AcquireOrderEntries: 50,
					},
					Events: &obs.Events{Emitted: 5_000, Batches: 2, Reads: 3_000, Writes: 1_500, Syncs: 500},
					Log: obs.LogStreams{
						TotalBytes: 8_192, InputChunks: 1, OrderChunks: 2,
						InputRecords: 12, OrderRecords: 101,
						InputRawBytes: 384, OrderRawBytes: 3_232,
						InputBytes: 96, OrderBytes: 2_048,
					},
				},
			},
		},
	}
	got, err := RenderJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "json_schema.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON schema drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// MeasureJSON rows must come out sorted by (bench, config) with one row
// per benchmark × config cell, and the analysis cache must make
// analysis_wall_ns identical across every config row of one benchmark.
func TestMeasureJSONRowOrder(t *testing.T) {
	name := bench.All()[0].Name
	s, err := NewSuite(Default(), name)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := s.MeasureJSON(MHPConfigNames)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(MHPConfigNames) {
		t.Fatalf("got %d rows, want %d", len(entries), len(MHPConfigNames))
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool {
		if entries[i].Bench != entries[j].Bench {
			return entries[i].Bench < entries[j].Bench
		}
		return entries[i].Config < entries[j].Config
	}) {
		t.Errorf("rows not in canonical (bench, config) order: %+v", entries)
	}
	for _, e := range entries {
		if e.Bench != name {
			t.Errorf("unexpected bench %q", e.Bench)
		}
		if e.InstrumentedPairs+e.PrunedPairs != e.StaticPairs {
			t.Errorf("%s/%s: instrumented %d + pruned %d != static %d",
				e.Bench, e.Config, e.InstrumentedPairs, e.PrunedPairs, e.StaticPairs)
		}
		var byReason int
		for _, n := range e.PrunedBy {
			byReason += n
		}
		if byReason != e.PrunedPairs {
			t.Errorf("%s/%s: pruned_by sums to %d, want pruned_pairs %d",
				e.Bench, e.Config, byReason, e.PrunedPairs)
		}
		if e.AnalysisWallNS != entries[0].AnalysisWallNS {
			t.Errorf("analysis_wall_ns differs across configs of one benchmark: %d vs %d (cache not shared?)",
				e.AnalysisWallNS, entries[0].AnalysisWallNS)
		}
		if !e.ReplayMatches {
			t.Errorf("%s/%s: replay did not match recording", e.Bench, e.Config)
		}
		if !e.Certified {
			t.Errorf("%s/%s: instrumented output failed certification", e.Bench, e.Config)
		}
		if e.CertifyWallNS <= 0 {
			t.Errorf("%s/%s: certify_wall_ns = %d, want > 0", e.Bench, e.Config, e.CertifyWallNS)
		}
		if e.RecordLogBytes <= 0 || e.OrderLogBytes <= 0 {
			t.Errorf("%s/%s: streamed log sizes not populated: record=%d order=%d",
				e.Bench, e.Config, e.RecordLogBytes, e.OrderLogBytes)
		}
		if e.RecordLogBytes <= e.OrderLogBytes {
			t.Errorf("%s/%s: whole stream (%d bytes) must exceed its order share (%d bytes)",
				e.Bench, e.Config, e.RecordLogBytes, e.OrderLogBytes)
		}
		if e.RecordWallNS <= 0 || e.ReplayWallNS <= 0 || e.CheckerWallNS <= 0 {
			t.Errorf("%s/%s: wall-clock fields not populated: rec=%d rep=%d chk=%d",
				e.Bench, e.Config, e.RecordWallNS, e.ReplayWallNS, e.CheckerWallNS)
		}
		mtr := e.Metrics
		if mtr == nil {
			t.Fatalf("%s/%s: metrics block missing", e.Bench, e.Config)
		}
		if mtr.Schema != obs.Schema {
			t.Errorf("%s/%s: metrics schema = %d, want %d", e.Bench, e.Config, mtr.Schema, obs.Schema)
		}
		wl := mtr.WeakLocks
		if len(wl.Sites) != e.WeakLocks {
			t.Errorf("%s/%s: %d site rows, want %d (one per weak lock)",
				e.Bench, e.Config, len(wl.Sites), e.WeakLocks)
		}
		// The runtime accounting invariant: per-site committed operations
		// are exactly the lock's order-log records.
		if wl.Acquires+wl.Releases+wl.Forced != wl.OrderLogEntries {
			t.Errorf("%s/%s: acquires %d + releases %d + forced %d != order-log entries %d",
				e.Bench, e.Config, wl.Acquires, wl.Releases, wl.Forced, wl.OrderLogEntries)
		}
		if wl.Acquires != wl.AcquireOrderEntries {
			t.Errorf("%s/%s: per-site acquire total %d != EvWLAcquire order entries %d",
				e.Bench, e.Config, wl.Acquires, wl.AcquireOrderEntries)
		}
		var siteAcq int64
		for _, st := range wl.Sites {
			siteAcq += st.Acquires
		}
		if siteAcq != wl.Acquires {
			t.Errorf("%s/%s: site acquire sum %d != total %d", e.Bench, e.Config, siteAcq, wl.Acquires)
		}
		// Log-stream consistency with the row's own byte counters.
		if mtr.Log.TotalBytes != e.RecordLogBytes {
			t.Errorf("%s/%s: metrics log total %d != record_log_bytes %d",
				e.Bench, e.Config, mtr.Log.TotalBytes, e.RecordLogBytes)
		}
		if mtr.Log.OrderBytes != e.OrderLogBytes {
			t.Errorf("%s/%s: metrics order bytes %d != order_log_bytes %d",
				e.Bench, e.Config, mtr.Log.OrderBytes, e.OrderLogBytes)
		}
		if mtr.Events.Emitted <= 0 || mtr.Events.Reads+mtr.Events.Writes+mtr.Events.Syncs != mtr.Events.Emitted {
			t.Errorf("%s/%s: event stream accounting off: emitted=%d reads=%d writes=%d syncs=%d",
				e.Bench, e.Config, mtr.Events.Emitted, mtr.Events.Reads, mtr.Events.Writes, mtr.Events.Syncs)
		}
	}
}
