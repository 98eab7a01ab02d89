// Command perfbench is the Chimera repository's benchmark. It runs one
// named workload against the system's public entry points for a fixed
// time, checks every output, and prints every metric by name with its
// unit; the last line of its standard output is a JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {NAME: {"value": V, "unit": U}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run repeats the workload with the same seed while
// recording spans around every call the benchmark makes, feeds the ops'
// inputs directly through the layers' public functions, and reports the
// per-layer metrics plus the tracing overhead.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload analyze --seed 1 --seconds 12 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// runCtx is one run's settings.
type runCtx struct {
	seed      uint64
	dur       time.Duration
	clients   int
	trace     bool
	spoolRoot string
}

// setupReps is how many times a service workload boots the service to
// measure set-up time (the run's own boot adds one more sample).
const setupReps = 500

var workloads = map[string]func(runCtx) (*outcome, error){
	"analyze":       runAnalyze,
	"record-replay": runRecordReplay,
	"paper-suite":   runPaperSuite,
}

// Metric names and units of the final JSON line, as BENCHMARK.json
// lists them.
var endToEndMetrics = [][2]string{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

var perLayerMetrics = [][2]string{
	{"minic.parse_ms", "ms"}, {"minic.typecheck_ms", "ms"}, {"vm.compile_ms", "ms"},
	{"pointsto.ms", "ms"}, {"callgraph.ms", "ms"}, {"callgraph.sccs", "count"},
	{"relay.ms", "ms"}, {"relay.pairs", "count"},
	{"mhp.ms", "ms"}, {"mhp.pruned_ratio", "ratio"}, {"escape.ms", "ms"}, {"escape.pruned_ratio", "ratio"},
	{"core.cache_hit_ratio", "ratio"}, {"summary.reuse_ratio", "ratio"},
	{"instrument.ms", "ms"}, {"instrument.weak_locks", "count"},
	{"certify.ms", "ms"}, {"profile.ms", "ms"},
	{"vm.native_ms", "ms"}, {"vm.record_ms", "ms"}, {"vm.replay_ms", "ms"},
	{"vm.instrs_per_s", "1/s"}, {"vm.alloc_mib_per_run", "MiB"},
	{"weaklock.ops", "count"}, {"weaklock.contention_cycles", "cycles"},
	{"replay.encode_mib_per_s", "MiB/s"}, {"replay.decode_mib_per_s", "MiB/s"}, {"replay.log_bytes", "B"},
	{"trace.epoch_ms", "ms"}, {"trace.vector_ms", "ms"}, {"trace.events", "count"},
	{"pool.queue_wait_p50_ms", "ms"}, {"pool.queue_wait_p99_ms", "ms"},
	{"service.run_ms", "ms"}, {"service.rpc_overhead_ms", "ms"}, {"service.log_transfer_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
	{"suite_wall_s", "s"}, {"record_overhead_x", "ratio"}, {"record_log_kib", "KiB"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: analyze, record-replay or paper-suite")
		seed     = fs.Uint64("seed", 1, "workload seed: every generated input derives from it")
		seconds  = fs.Float64("seconds", 12, "measured time per phase")
		traceOn  = fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
		outDir   = fs.String("out", ".bench_build/perfbench", "directory for spools, spans and result records")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || fs.NArg() != 0 || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "usage: perfbench --workload analyze|record-replay|paper-suite --seed N --seconds S --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rc := runCtx{
		seed:      *seed,
		dur:       time.Duration(*seconds * float64(time.Second)),
		clients:   runtime.NumCPU(), // one closed-loop client per core
		trace:     *traceOn == 1,
		spoolRoot: *outDir,
	}
	out, err := w(rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}

	base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *traceOn))
	if out.spans != nil {
		if err := out.spans.write(base + ".spans.json"); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
	}
	names := endToEndMetrics
	if rc.trace {
		names = perLayerMetrics
	}
	record := resultRecord{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traceOn, Clients: rc.clients,
		Host: hostFacts(), Correct: out.correct(), Attempted: out.attempted, Failed: out.failed,
		Failures: out.notes, Checks: out.checks, Metrics: out.metrics,
	}
	if b, err := json.MarshalIndent(record, "", "  "); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	} else if err := os.WriteFile(base+".result.json", b, 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench: write result:", err)
		return 1
	}

	var sb strings.Builder
	h := record.Host
	fmt.Fprintf(&sb, "perfbench %s seed=%d seconds=%g trace=%d clients=%d | %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		*workload, *seed, *seconds, *traceOn, rc.clients, h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	fmt.Fprintf(&sb, "  ops attempted %d, failed %d, correct %v\n", out.attempted, out.failed, out.correct())
	for _, n := range out.notes {
		fmt.Fprintf(&sb, "  FAILED: %s\n", n)
	}
	for _, c := range out.checks {
		fmt.Fprintf(&sb, "  CHECK FAILED: %s\n", c)
	}
	out.render(&sb)
	fmt.Fprintf(&sb, "  result record %s.result.json\n", base)
	io.WriteString(stdout, sb.String())

	metrics := make(map[string]jsonMetric, len(names))
	for _, nu := range names {
		metrics[nu[0]] = jsonMetric{Value: out.value(nu[0]), Unit: nu[1]}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.correct(), out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultRecord is the full record of one run, written next to its spans.
type resultRecord struct {
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Trace     int         `json:"trace"`
	Clients   int         `json:"clients"`
	Host      host        `json:"host"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Failures  []string    `json:"failures,omitempty"`
	Checks    []string    `json:"failed_checks,omitempty"`
	Metrics   []metricRec `json:"metrics"`
}

type host struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostFacts() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}
