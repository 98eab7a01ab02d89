package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// checkOutcome asserts a clean run: ops were attempted, every one was
// verified, and every named metric was reported.
func checkOutcome(t *testing.T, out *outcome, names [][2]string) {
	t.Helper()
	if out.attempted == 0 || out.failed != 0 || !out.correct() {
		t.Fatalf("attempted %d, failed %d, failures %v, failed checks %v", out.attempted, out.failed, out.notes, out.checks)
	}
	for _, nu := range names {
		found := false
		for _, m := range out.metrics {
			if m.Name == nu[0] {
				found = true
				if m.Unit != nu[1] {
					t.Errorf("%s in %s, want %s", m.Name, m.Unit, nu[1])
				}
			}
		}
		if !found {
			t.Errorf("metric %s not reported", nu[0])
		}
	}
}

func smokeCtx(t *testing.T, trace bool) runCtx {
	return runCtx{seed: 42, dur: 400 * time.Millisecond, clients: 2, trace: trace, spoolRoot: t.TempDir()}
}

func TestServiceWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"analyze", "record-replay"} {
		for _, trace := range []bool{false, true} {
			out, err := workloads[name](smokeCtx(t, trace))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			names := endToEndMetrics
			if trace {
				names = perLayerMetrics[:len(perLayerMetrics)-3] // the paper-suite totals come only from paper-suite
			} else if v := out.value("error_rate"); v != 0 {
				t.Errorf("%s: error_rate %v", name, v)
			}
			checkOutcome(t, out, names)
			if trace && len(out.spans.all()) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
}

// BENCHMARK.json lists the metrics the final JSON line carries.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	pairs := func(ms []struct{ Name, Unit string }) [][2]string {
		var out [][2]string
		for _, m := range ms {
			out = append(out, [2]string{m.Name, m.Unit})
		}
		return out
	}
	if got := pairs(doc.EndToEnd); !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("end_to_end %v, want %v", got, endToEndMetrics)
	}
	if got := pairs(doc.PerLayer); !reflect.DeepEqual(got, perLayerMetrics) {
		t.Errorf("per_layer %v, want %v", got, perLayerMetrics)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(doc.Workloads), len(workloads))
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 60},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past its parent
	}
	st := selfTimes(spans)
	if got := st["root"].SelfNS; got != 100-50-10 {
		t.Errorf("root self %d, want 40", got)
	}
	if got := st["a"]; got.Count != 2 || got.SelfNS != 60 {
		t.Errorf("a = %+v, want 2 spans, 60ns", got)
	}
}
