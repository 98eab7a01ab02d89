package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_suite.golden.json from a fresh pass")

const paperGolden = "testdata/paper_suite.golden.json"

// The paper suite's simulated outputs — every field but the wall-clock
// ones — are identical across passes and equal the committed snapshot
// (the BENCH_PR8.json rows of a `chimera-bench -json -precision` run).
// record_overhead_x and record_log_kib are derived from them.
func TestPaperSuiteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper suite twice")
	}
	var passes [][]byte
	for pass := 0; pass < 2; pass++ {
		p, err := runSuitePass(nil, pass)
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range cellErrors(p.Entries) {
			t.Error(err)
		}
		if got := fmt.Sprintf("%.3f", p.Overhead); got != "1.536" {
			t.Errorf("record_overhead_x = %s, want 1.536", got)
		}
		if got := fmt.Sprintf("%.1f", p.LogKiB); got != "177.2" {
			t.Errorf("record_log_kib = %s, want 177.2", got)
		}
		det, err := deterministicJSON(p.Entries)
		if err != nil {
			t.Fatal(err)
		}
		passes = append(passes, det)
	}
	if !bytes.Equal(passes[0], passes[1]) {
		t.Fatal("simulated outputs differ between two passes")
	}
	if *update {
		if err := os.WriteFile(paperGolden, append(passes[0], '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(passes[0], '\n'), want) {
		t.Fatalf("simulated outputs differ from %s; rerun with -update only if the change is intended", paperGolden)
	}
}

// The golden file holds exactly the committed snapshot's rows.
func TestPaperGoldenIsTheSnapshot(t *testing.T) {
	var entries []harness.JSONEntry
	b, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatal(err)
	}
	for _, err := range cellErrors(entries) {
		t.Error(err)
	}
	var overheads []float64
	var logBytes int64
	for _, e := range entries {
		if e.Config == "all" {
			overheads = append(overheads, e.RecordOverhead)
			logBytes += e.RecordLogBytes
		}
	}
	if got := fmt.Sprintf("%.3f %.1f", geomean(overheads), float64(logBytes)/1024); got != "1.536 177.2" {
		t.Fatalf("golden record_overhead_x, record_log_kib = %s, want 1.536 177.2", got)
	}
}

// The traced run's direct layer calls succeed on every paper benchmark.
func TestPaperProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper benchmark through every layer")
	}
	pr := &probe{rec: newRecorder()}
	for i, b := range bench.All() {
		if err := pr.paperInput(int64(i+1), b); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
	if pr.n.checks != 2*int64(len(bench.All())) {
		t.Errorf("%d checker runs, want two per benchmark", pr.n.checks)
	}
}

func TestPaperSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper suite")
	}
	out, err := runPaperSuite(runCtx{seed: 1, dur: time.Millisecond, clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, out, endToEndMetrics)
}
