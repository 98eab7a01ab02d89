// chimera-bench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	chimera-bench -table 1              # Table 1 (benchmark inventory)
//	chimera-bench -table 2              # Table 2 (record/replay, 4 workers)
//	chimera-bench -figure 5             # Figure 5 (overhead per opt set)
//	chimera-bench -figure 6             # Figure 6 (wl ops / mem ops)
//	chimera-bench -figure 7             # Figure 7 (logging vs contention)
//	chimera-bench -figure 8             # Figure 8 (2/4/8 workers)
//	chimera-bench -figure sens          # §7.3 profile sensitivity
//	chimera-bench -figure mhp           # Figure-5-style ±MHP refinement
//	chimera-bench -all                  # everything
//	chimera-bench -bench radix -table 2 # restrict to one benchmark
//	chimera-bench -parallel 4 -all      # fan independent cells over 4 workers
//	chimera-bench -all -json out.json   # also write machine-readable entries
//	                                    # (MHP opt sets) with wall-clock stats
//	chimera-bench -incremental          # cold vs warm (store-primed) wall
//	                                    # of re-analyzing a single libc edit;
//	                                    # with -json, recorded as the report's
//	                                    # "incremental" section
//	chimera-bench -scenario 'prodcons:1:small;cache:7:medium' -json out.json
//	                                    # measure generated scenario workloads
//	                                    # (internal/scenario) through the same
//	                                    # harness; their JSON rows reuse the
//	                                    # full metrics block and are what the
//	                                    # CI scenario soundness gate asserts
//	chimera-bench -scenario 'prodcons:1:small' -server http://localhost:8377 -json out.json
//	                                    # run the scenario specs as chimerad
//	                                    # gen-pipeline jobs instead of the
//	                                    # local harness; rows carry Config
//	                                    # "server" plus the server-reported
//	                                    # queue_wait_ns/server_run_ns
//	chimera-bench -precision -all -json out.json
//	                                    # apply the static precision layer
//	                                    # (thread-escape, must-lockset
//	                                    # sharpening, read-only sharing) to
//	                                    # every config's report; +mhp configs
//	                                    # compose it over the MHP-refined set
//
// Benchmark preparation and independent benchmark × config cells run on a
// bounded pool of -parallel workers. All emitted tables, figures and JSON
// rows are byte-identical for every -parallel value: analysis is proven
// deterministic under parallelism (see the determinism test layer), and
// measurements land in canonically ordered slots.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench/harness"
	"repro/internal/service"
)

func main() {
	var (
		table     = flag.String("table", "", "regenerate a table: 1 or 2")
		figure    = flag.String("figure", "", "regenerate a figure: 5, 6, 7, 8, sens, or mhp")
		all       = flag.Bool("all", false, "regenerate everything")
		benches   = flag.String("bench", "", "comma-separated benchmark subset (default: all nine)")
		workers   = flag.Int("workers", 4, "evaluation worker count for tables/figures 5-7")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "harness worker pool size (1 = sequential)")
		jsonPath  = flag.String("json", "", "write machine-readable measurements (MHP opt sets) to this file")
		incr      = flag.Bool("incremental", false, "measure the warm-edit incremental-analysis speedup (recorded in -json when given)")
		reps      = flag.Int("reps", 3, "with -incremental: wall-clock repetitions (minimum is reported)")
		scenList  = flag.String("scenario", "", "generated scenario specs (family:seed:size, ';'-separated) to measure alongside the embedded benchmarks")
		precision = flag.Bool("precision", false, "apply the static precision layer (thread-escape, must-lockset, read-only) to every config's report")
		server    = flag.String("server", "", "chimerad base URL: run -scenario specs as gen-pipeline jobs there instead of the local harness")
		tenant    = flag.String("tenant", "", "tenant namespace for -server submissions")
	)
	flag.Parse()

	if *server != "" && *scenList == "" {
		fatal(fmt.Errorf("-server requires -scenario (only scenario workloads run remotely)"))
	}

	cfg := harness.Default()
	cfg.Workers = *workers
	cfg.Parallel = *parallel
	cfg.Precision = *precision

	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}

	if !*all && *table == "" && *figure == "" && *jsonPath == "" && !*incr && *scenList == "" {
		flag.Usage()
		os.Exit(2)
	}

	var incBench *harness.IncrementalBench
	if *incr {
		fmt.Fprintln(os.Stderr, "measuring warm-edit incremental re-analysis (cold vs store-primed)...")
		ib, err := harness.MeasureIncremental(names, cfg.Workers, *reps)
		if err != nil {
			fatal(err)
		}
		incBench = ib
		fmt.Println(harness.RenderIncremental(ib))
	}

	want := harness.Workload{
		Table1: *all || *table == "1",
		Table2: *all || *table == "2",
		Fig5:   *all || *figure == "5",
		Fig6:   *all || *figure == "6",
		Fig7:   *all || *figure == "7",
		Fig8:   *all || *figure == "8",
		Sens:   *all || *figure == "sens",
		MHP:    *all || *figure == "mhp",
		JSON:   *jsonPath != "",
	}

	start := time.Now()
	var entries []harness.JSONEntry
	// With -scenario alone, -json exports only the scenario rows; any
	// table/figure/-all request still measures the embedded benchmarks.
	if *all || *table != "" || *figure != "" || (*jsonPath != "" && *scenList == "") {
		var err error
		entries, err = harness.RunWorkload(cfg, names, want, os.Stdout, os.Stderr)
		if err != nil {
			fatal(err)
		}
	}
	if *scenList != "" {
		var scen []harness.JSONEntry
		var err error
		if *server != "" {
			scen, err = runServerScenarios(*server, *tenant, *scenList, os.Stdout, os.Stderr)
		} else {
			scen, err = harness.RunScenarios(cfg, *scenList, os.Stdout, os.Stderr)
		}
		if err != nil {
			fatal(err)
		}
		entries = append(entries, scen...)
		harness.SortEntries(entries)
	}
	wall := time.Since(start).Nanoseconds()

	if *jsonPath != "" {
		rep := &harness.JSONReport{
			Parallel:      cfg.Parallel,
			Workers:       cfg.Workers,
			HarnessWallNS: wall,
			Incremental:   incBench,
			Entries:       entries,
		}
		b, err := harness.RenderJSON(rep)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, b, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote", *jsonPath)
	}
}

// runServerScenarios ships every scenario spec to a chimerad server as a
// gen-pipeline job (all submitted up front, so the server's shards run
// them concurrently) and converts the verdicts into JSON rows. Rows carry
// Config "server" and — unlike local harness rows — the server-observed
// queue_wait_ns/server_run_ns from the job view. The soundness verdicts
// themselves (certified, replay match, checker agreement) are computed by
// the identical pipeline either way.
func runServerScenarios(server, tenant, specText string, w, errOut io.Writer) ([]harness.JSONEntry, error) {
	var specs []string
	for _, sp := range strings.Split(specText, ";") {
		if sp = strings.TrimSpace(sp); sp != "" {
			specs = append(specs, sp)
		}
	}
	c := service.NewClient(server)
	fmt.Fprintf(errOut, "submitting %d gen-pipeline job(s) to %s...\n", len(specs), server)
	ids := make([]string, len(specs))
	for i, sp := range specs {
		accepted, err := c.Submit(&service.JobSpec{Kind: service.JobGenPipeline, Tenant: tenant, Spec: sp})
		if err != nil {
			return nil, fmt.Errorf("submit %s: %w", sp, err)
		}
		ids[i] = accepted.ID
	}

	entries := make([]harness.JSONEntry, 0, len(specs))
	fmt.Fprintln(w, "Generated scenarios (server mode):")
	fmt.Fprintf(w, "%-28s %5s %5s %6s %6s | %12s %12s\n",
		"scenario", "cert", "rep?", "races", "agree", "queue wait", "run")
	for i, sp := range specs {
		v, err := c.Wait(ids[i])
		if err != nil {
			return nil, fmt.Errorf("wait %s: %w", sp, err)
		}
		if v.State != service.StateDone || v.Result == nil {
			return nil, fmt.Errorf("job %s (%s) failed: %s", v.ID, sp, v.Error)
		}
		r := v.Result
		e := harness.JSONEntry{
			Bench:       sp,
			Config:      "server",
			QueueWaitNS: v.QueueWaitNS,
			ServerRunNS: v.RunNS,
		}
		if r.Certified != nil {
			e.Certified = *r.Certified
		}
		if r.ReplayMatches != nil {
			e.ReplayMatches = *r.ReplayMatches
		}
		if r.CheckerRaces != nil {
			e.CheckerRaces = *r.CheckerRaces
		}
		if r.CheckersAgree != nil {
			e.CheckersAgree = *r.CheckersAgree
		}
		entries = append(entries, e)
		fmt.Fprintf(w, "%-28s %5v %5v %6d %6v | %10.3fms %10.3fms\n",
			sp, e.Certified, e.ReplayMatches, e.CheckerRaces, e.CheckersAgree,
			float64(e.QueueWaitNS)/1e6, float64(e.ServerRunNS)/1e6)
	}
	fmt.Fprintln(w)
	return entries, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chimera-bench:", err)
	os.Exit(1)
}
