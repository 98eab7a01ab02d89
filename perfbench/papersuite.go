package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/harness"
	"repro/internal/core"
	"repro/internal/vm"
)

// suiteConfig is the paper evaluation: Table 2's settings with the
// precision layer on and one harness worker per CPU.
func suiteConfig() harness.Config {
	cfg := harness.Default()
	cfg.Precision = true
	cfg.Parallel = runtime.NumCPU()
	return cfg
}

// paperSuiteTail is the paper suite's tail cell-latency percentile. The
// cells are a fixed set measured once per pass, so the tail is the class
// of the slowest cells (ocean, radix and fft), not a statistical tail.
const paperSuiteTail = 90

// suiteSetupReps is how many suites a paper-suite phase prepares only to
// time set-up, before the measured passes (each adds one more sample).
const suiteSetupReps = 4

// suitePass is one fresh suite: prepared, then measured.
type suitePass struct {
	SetupS   float64
	WallS    float64
	CellMS   []float64
	Entries  []harness.JSONEntry
	Overhead float64 // geomean record/native makespan at config "all"
	LogKiB   float64 // compressed CHIMLOG2 bytes of the "all" recordings
}

// runSuitePass prepares a fresh suite and measures its 36 cells. The
// cells are measured one by one through Suite.Measure on one goroutine
// per harness worker (the schedule MeasureJSON uses), so each cell's
// latency is known; MeasureJSON then assembles and certifies the rows
// from the memoized cells.
func runSuitePass(rec *recorder, pass int) (*suitePass, error) {
	cfg := suiteConfig()
	id := int64(pass) + 1
	root := rec.start("op.suite-pass", id, nil)
	defer root.end()
	t0 := time.Now()
	var s *harness.Suite
	var err error
	rec.timed("harness.NewSuite", id, root, func() { s, err = harness.NewSuite(cfg) })
	if err != nil {
		return nil, err
	}
	p := &suitePass{SetupS: time.Since(t0).Seconds()}

	type cell struct {
		p      *harness.Prepared
		config string
	}
	var cells []cell
	for _, item := range s.Items {
		for _, cn := range harness.MHPConfigNames {
			cells = append(cells, cell{item, cn})
		}
	}
	t1 := time.Now()
	lat := make([]float64, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c0 := time.Now()
				rec.timed("harness.Measure", id, root, func() { _, errs[i] = s.Measure(cells[i].p, cells[i].config, cfg.Workers) })
				lat[i] = float64(time.Since(c0).Nanoseconds()) / 1e6
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rec.timed("harness.MeasureJSON", id, root, func() { p.Entries, err = s.MeasureJSON(harness.MHPConfigNames) })
	if err != nil {
		return nil, err
	}
	p.WallS = time.Since(t1).Seconds()
	p.CellMS = lat

	var overheads []float64
	var logBytes int64
	for _, e := range p.Entries {
		if e.Config == "all" {
			overheads = append(overheads, e.RecordOverhead)
			logBytes += e.RecordLogBytes
		}
	}
	p.Overhead = geomean(overheads)
	p.LogKiB = float64(logBytes) / 1024
	return p, nil
}

// cellErrors lists the rows that miss a verdict: every cell must replay
// bit-identically, certify, have both checkers agree, and show no race.
func cellErrors(entries []harness.JSONEntry) []error {
	var errs []error
	if len(entries) != len(bench.All())*len(harness.MHPConfigNames) {
		errs = append(errs, fmt.Errorf("paper suite measured %d cells, want %d", len(entries), len(bench.All())*len(harness.MHPConfigNames)))
	}
	for _, e := range entries {
		if !e.ReplayMatches || !e.Certified || !e.CheckersAgree || e.CheckerRaces != 0 {
			errs = append(errs, fmt.Errorf("%s/%s: replay_matches=%v certified=%v checkers_agree=%v checker_races=%d",
				e.Bench, e.Config, e.ReplayMatches, e.Certified, e.CheckersAgree, e.CheckerRaces))
		}
	}
	return errs
}

// deterministicJSON renders the rows with every wall-clock field zeroed:
// what is left is simulated and must not change between passes.
func deterministicJSON(entries []harness.JSONEntry) ([]byte, error) {
	masked := make([]harness.JSONEntry, len(entries))
	for i, e := range entries {
		e.AnalysisWallNS, e.RecordWallNS, e.ReplayWallNS = 0, 0, 0
		e.CheckerWallNS, e.CertifyWallNS = 0, 0
		e.QueueWaitNS, e.ServerRunNS = 0, 0
		masked[i] = e
	}
	return json.MarshalIndent(masked, "", " ")
}

// suiteRun is a sequence of passes filling the run time.
type suiteRun struct {
	setups  []float64
	passes  []*suitePass
	peakMiB float64
}

// runSuitePhase runs passes until dur has passed: the measured window
// closes at the first pass boundary after dur, so it always holds whole
// passes. It checks each pass's verdicts and that its simulated outputs
// equal the first pass's.
func runSuitePhase(rc runCtx, rec *recorder, out *outcome) (*suiteRun, error) {
	run := &suiteRun{}
	for i := 0; i < suiteSetupReps; i++ {
		t0 := time.Now()
		if _, err := harness.NewSuite(suiteConfig()); err != nil {
			return nil, err
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	var first []byte
	for pass := 0; ; pass++ {
		p, err := runSuitePass(rec, pass)
		if err != nil {
			return nil, err
		}
		run.passes = append(run.passes, p)
		out.attempted += len(p.CellMS)
		bad := cellErrors(p.Entries)
		out.failed += len(bad)
		for _, err := range bad {
			out.note(err)
		}
		det, err := deterministicJSON(p.Entries)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = det
		} else if string(det) != string(first) {
			out.check(fmt.Errorf("pass %d: simulated outputs differ from pass 1", pass+1))
		}
		if time.Since(t0) >= rc.dur {
			break
		}
	}
	run.peakMiB = peakRSSMiB()
	return run, nil
}

func (r *suiteRun) collect(f func(p *suitePass) []float64) []float64 {
	var xs []float64
	for _, p := range r.passes {
		xs = append(xs, f(p)...)
	}
	return xs
}

func (r *suiteRun) suiteWall() float64 {
	return describe(r.collect(func(p *suitePass) []float64 { return []float64{p.WallS} })).Median
}

func runPaperSuite(rc runCtx) (*outcome, error) {
	out := newOutcome(paperSuiteTail)
	plain, err := runSuitePhase(rc, nil, out)
	if err != nil {
		return nil, err
	}
	if !rc.trace {
		setups := append(plain.setups, plain.collect(func(p *suitePass) []float64 { return []float64{p.SetupS} })...)
		cells := plain.collect(func(p *suitePass) []float64 { return p.CellMS })
		rates := plain.collect(func(p *suitePass) []float64 { return []float64{float64(len(p.CellMS)) / p.WallS} })
		walls := plain.collect(func(p *suitePass) []float64 { return []float64{p.WallS} })
		rate := describe(rates)
		out.add("setup_s", "s", setups)
		out.put(metricRec{Name: "ops_per_s", Unit: "ops/s", Value: float64(len(cells)) / sum(walls), Dist: &rate})
		out.addTail("latency_p50_ms", "latency_p99_ms", cells)
		out.set("peak_rss_mib", "MiB", plain.peakMiB)
		out.add("suite_wall_s", "s", plain.collect(func(p *suitePass) []float64 { return []float64{p.WallS} }))
		out.add("record_overhead_x", "ratio", plain.collect(func(p *suitePass) []float64 { return []float64{p.Overhead} }))
		out.add("record_log_kib", "KiB", plain.collect(func(p *suitePass) []float64 { return []float64{p.LogKiB} }))
		out.errorRate()
		return out, nil
	}

	rec := newRecorder()
	traced, err := runSuitePhase(rc, rec, out)
	if err != nil {
		return nil, err
	}
	pr := &probe{rec: rec}
	for i, b := range bench.All() {
		if err := pr.paperInput(int64(1000+i), b); err != nil {
			out.check(fmt.Errorf("layers %s: %w", b.Name, err))
		}
	}
	out.perLayer(rec, pr.n, loopResult{}, nil)
	out.add("suite_wall_s", "s", traced.collect(func(p *suitePass) []float64 { return []float64{p.WallS} }))
	out.add("record_overhead_x", "ratio", traced.collect(func(p *suitePass) []float64 { return []float64{p.Overhead} }))
	out.add("record_log_kib", "KiB", traced.collect(func(p *suitePass) []float64 { return []float64{p.LogKiB} }))
	out.set("obs.trace_overhead_pct", "%", overheadPct(plain.suiteWall(), traced.suiteWall(), false))
	out.spans = rec
	return out, nil
}

// paperInput runs one paper benchmark through every layer the suite
// exercises, at config "all" with the precision layer: analysis,
// profiling, instrumentation, certification, the native, recorded and
// replayed runs, and both race checkers.
func (pr *probe) paperInput(op int64, b *bench.Benchmark) error {
	cfg := suiteConfig()
	root := pr.rec.start("layers", op, nil)
	defer root.end()
	prog, err := pr.frontEnd(op, root, program{Name: b.Name + ".mc", Source: b.FullSource()})
	if err != nil {
		return err
	}
	pr.refineMHP(op, root, prog.Races)
	rep := pr.refineEscape(op, root, prog.Races)
	conc := pr.profileRuns(op, root, prog, b)
	ip, err := pr.instrument(op, root, prog, rep, conc)
	if err != nil {
		return err
	}
	if err := pr.certify(op, root, ip, "all"); err != nil {
		return err
	}
	world := func() core.RunConfig {
		return core.RunConfig{World: b.EvalWorld(cfg.Workers), Seed: cfg.Seed, HeapWords: cfg.HeapWords}
	}
	if r := pr.vmRun("vm.native", op, root, func() *vm.Result { return prog.RunNative(world()) }); r.Err != nil {
		return fmt.Errorf("native: %w", r.Err)
	}
	rep2 := world()
	rep2.Seed = cfg.ReplaySeed
	if err := pr.recordReplay(op, root, ip, world(), rep2); err != nil {
		return err
	}
	return pr.checkers(op, root, ip, world)
}
