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
//	chimera-bench -scenario 'prodcons:1:small;cache:7:medium' -json out.json
//	                                    # measure generated scenario workloads
//	                                    # (internal/scenario) through the same
//	                                    # harness; their JSON rows reuse the
//	                                    # full metrics block and are what the
//	                                    # CI scenario soundness gate asserts
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
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench/harness"
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
		scenList  = flag.String("scenario", "", "generated scenario specs (family:seed:size, ';'-separated) to measure alongside the embedded benchmarks")
		precision = flag.Bool("precision", false, "apply the static precision layer (thread-escape, must-lockset, read-only) to every config's report")
	)
	flag.Parse()

	cfg := harness.Default()
	cfg.Workers = *workers
	cfg.Parallel = *parallel
	cfg.Precision = *precision

	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}

	if !*all && *table == "" && *figure == "" && *jsonPath == "" && *scenList == "" {
		flag.Usage()
		os.Exit(2)
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
		scen, err := harness.RunScenarios(cfg, *scenList, os.Stdout, os.Stderr)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chimera-bench:", err)
	os.Exit(1)
}
