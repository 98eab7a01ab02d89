package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/callgraph"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/instrument"
	"repro/internal/mhp"
	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/oskit"
	"repro/internal/pointsto"
	"repro/internal/profile"
	"repro/internal/relay"
	"repro/internal/replay"
	"repro/internal/summary"
	"repro/internal/trace"
	"repro/internal/vm"
)

// probe runs op inputs directly through the layers' public functions in
// pipeline order, one span per call, and accumulates the counts the
// per-layer metrics need. It runs on one goroutine, after the traced
// closed loop, so its calls never contend with service load.
type probe struct {
	rec *recorder
	n   layerCounts
}

// layerCounts are sums over the probe's calls.
type layerCounts struct {
	programs, sccs, pairs                  int64
	mhpIn, mhpPruned, escIn, escPruned     int64
	instruments, weakLocks                 int64
	vmRuns, vmInstrs, vmWallNS, vmAllocB   int64
	records, wlOps, wlContention, logBytes int64
	encBytes, encNS, decBytes, decNS       int64
	checks, events                         int64
	editFuncs, editReused                  int64
}

// frontEnd parses, type-checks, compiles and analyzes a program: the
// stages core.LoadParallel runs, called one by one.
func (pr *probe) frontEnd(op int64, parent *open, p program) (*core.Program, error) {
	var (
		prog = &core.Program{Name: strings.TrimSuffix(p.Name, ".mc"), Source: p.Source}
		err  error
	)
	pr.rec.timed("minic.parse", op, parent, func() { prog.File, err = parser.Parse(p.Name, p.Source) })
	if err != nil {
		return nil, err
	}
	pr.rec.timed("minic.typecheck", op, parent, func() { prog.Info, err = types.Check(prog.File) })
	if err != nil {
		return nil, err
	}
	pr.rec.timed("vm.compile", op, parent, func() { prog.Code, err = vm.Compile(prog.Info) })
	if err != nil {
		return nil, err
	}
	pr.rec.timed("pointsto", op, parent, func() { prog.PTA = pointsto.Analyze(prog.Info) })
	pr.rec.timed("callgraph", op, parent, func() { prog.CG = callgraph.Build(prog.Info, prog.PTA) })
	pr.rec.timed("relay", op, parent, func() { prog.Races = relay.AnalyzeParallel(prog.Info, prog.PTA, prog.CG, 1) })
	pr.n.programs++
	pr.n.sccs += int64(len(prog.CG.SCCs))
	pr.n.pairs += int64(len(prog.Races.Pairs))
	return prog, nil
}

func (pr *probe) refineMHP(op int64, parent *open, rep *relay.Report) *relay.Report {
	var out *relay.Report
	pr.rec.timed("mhp", op, parent, func() { out = mhp.Refine(rep) })
	pr.n.mhpIn += int64(len(rep.Pairs))
	pr.n.mhpPruned += int64(len(rep.Pairs) - len(out.Pairs))
	return out
}

func (pr *probe) refineEscape(op int64, parent *open, rep *relay.Report) *relay.Report {
	var out *relay.Report
	pr.rec.timed("escape", op, parent, func() { out = escape.Refine(rep) })
	pr.n.escIn += int64(len(rep.Pairs))
	pr.n.escPruned += int64(len(rep.Pairs) - len(out.Pairs))
	return out
}

func (pr *probe) instrument(op int64, parent *open, prog *core.Program, rep *relay.Report, conc *profile.Concurrency) (*core.Instrumented, error) {
	var ip *core.Instrumented
	var err error
	pr.rec.timed("instrument", op, parent, func() { ip, err = prog.InstrumentWith(rep, conc, instrument.AllOptions()) })
	if err != nil {
		return nil, err
	}
	pr.n.instruments++
	pr.n.weakLocks += int64(ip.Table.Len())
	return ip, nil
}

func (pr *probe) certify(op int64, parent *open, ip *core.Instrumented, label string) error {
	var cert *certify.Certificate
	var err error
	pr.rec.timed("certify", op, parent, func() {
		cert, err = certify.Certify(ip.Rep, ip.Report.Source, ip.Orig.Name, label)
	})
	if err != nil {
		return err
	}
	if !cert.OK {
		return fmt.Errorf("%s: certificate failed: %s", ip.Orig.Name, cert.Summary())
	}
	return nil
}

// profileRuns is the harness's non-concurrency profiling of a paper
// benchmark (its profile worlds and run count).
func (pr *probe) profileRuns(op int64, parent *open, prog *core.Program, b *bench.Benchmark) *profile.Concurrency {
	var conc *profile.Concurrency
	pr.rec.timed("profile", op, parent, func() { conc = prog.ProfileNonConcurrency(b.ProfileWorld, b.ProfileRuns, 10_000) })
	return conc
}

// vmRun times one VM execution and accounts its instructions and the
// heap it allocated (TotalAlloc delta, read outside the span).
func (pr *probe) vmRun(name string, op int64, parent *open, run func() *vm.Result) *vm.Result {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var r *vm.Result
	t0 := time.Now()
	pr.rec.timed(name, op, parent, func() { r = run() })
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	pr.n.vmRuns++
	pr.n.vmWallNS += wall.Nanoseconds()
	pr.n.vmAllocB += int64(after.TotalAlloc - before.TotalAlloc)
	if r != nil {
		pr.n.vmInstrs += r.Counters.Instrs
	}
	return r
}

// recordReplay records one execution of ip, re-encodes and decodes the
// log, and replays it from the encoded stream; the replay must match.
func (pr *probe) recordReplay(op int64, parent *open, ip *core.Instrumented, rec, rep core.RunConfig) error {
	var stream bytes.Buffer
	var log *replay.Log
	recRes := pr.vmRun("vm.record", op, parent, func() *vm.Result {
		r, l, _ := ip.RecordTo(rec, &stream)
		log = l
		return r
	})
	if recRes.Err != nil {
		return fmt.Errorf("record: %w", recRes.Err)
	}
	pr.n.records++
	pr.n.wlOps += recRes.WLStats.TotalOps()
	for _, c := range recRes.WLStats.Contention {
		pr.n.wlContention += c
	}
	pr.n.logBytes += int64(stream.Len())

	var enc bytes.Buffer
	var err error
	t0 := time.Now()
	pr.rec.timed("replay.encode", op, parent, func() { _, err = log.WriteTo(&enc) })
	pr.n.encNS += time.Since(t0).Nanoseconds()
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	pr.n.encBytes += int64(enc.Len())
	t0 = time.Now()
	pr.rec.timed("replay.decode", op, parent, func() { _, err = replay.ReadLog(bytes.NewReader(stream.Bytes())) })
	pr.n.decNS += time.Since(t0).Nanoseconds()
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	pr.n.decBytes += int64(stream.Len())

	var rerr error
	repRes := pr.vmRun("vm.replay", op, parent, func() *vm.Result {
		r, e := core.ReplayProgramStream(ip.Prog, ip.Table, bytes.NewReader(stream.Bytes()), rep)
		rerr = e
		return r
	})
	if rerr != nil {
		return fmt.Errorf("replay: %w", rerr)
	}
	if repRes.Hash64() != recRes.Hash64() {
		return fmt.Errorf("replay output hash %016x differs from recorded %016x", repRes.Hash64(), recRes.Hash64())
	}
	return nil
}

// checkers runs the epoch and the full-vector race checker, each on its
// own execution of the instrumented program under a fresh run config
// (worlds are consumed by a run); both must report no race.
func (pr *probe) checkers(op int64, parent *open, ip *core.Instrumented, rc func() core.RunConfig) error {
	for _, c := range []struct {
		span string
		chk  trace.RaceChecker
	}{{"trace.epoch", trace.NewChecker(0)}, {"trace.vector", trace.NewVectorChecker(0)}} {
		var r *vm.Result
		cfg := rc()
		pr.rec.timed(c.span, op, parent, func() { r = core.CheckDynamicRacesWith(ip.Prog, ip.Table, cfg, c.chk) })
		if r.Err != nil {
			return fmt.Errorf("%s run: %w", c.span, r.Err)
		}
		if n := len(c.chk.Races()); n != 0 {
			return fmt.Errorf("%s: %d race(s) in the instrumented program", c.span, n)
		}
		pr.n.checks++
		pr.n.events += r.Counters.EventsEmitted
	}
	return nil
}

// analyzeInput is the static verdict path of an analyze job
// (racecheck -certify -mhp -precision).
func (pr *probe) analyzeInput(op int64, p program) error {
	root := pr.rec.start("layers", op, nil)
	defer root.end()
	prog, err := pr.frontEnd(op, root, p)
	if err != nil {
		return err
	}
	rep := pr.refineEscape(op, root, pr.refineMHP(op, root, prog.Races))
	ip, err := pr.instrument(op, root, prog, rep, nil)
	if err != nil {
		return err
	}
	return pr.certify(op, root, ip, "all+mhp+precision")
}

// editReuse loads a program into a summary store the way a tenant's
// cache does and, for edit ops, counts the function summaries reused.
func (pr *probe) editReuse(op int64, p program, store *summary.Store, isEdit bool) error {
	var prog *core.Program
	var err error
	pr.rec.timed("summary.load", op, nil, func() { prog, err = core.LoadIncremental(p.Name, p.Source, 1, store) })
	if err != nil {
		return err
	}
	if isEdit && prog.Incremental != nil {
		pr.n.editFuncs += int64(prog.Incremental.TotalFuncs)
		pr.n.editReused += int64(prog.Incremental.ReusedFuncs)
	}
	return nil
}

// recordInput mirrors one record job and its replay-verify: the static
// stages run only when the program is new (the tenant cache holds it
// afterwards), instrumentation runs once per job, and the VM records and
// replays.
func (pr *probe) recordInput(op int64, op0 recordOp, analyzed map[string]*core.Program) error {
	root := pr.rec.start("layers", op, nil)
	defer root.end()
	prog := analyzed[op0.Prog.key()]
	if prog == nil {
		var err error
		if prog, err = pr.frontEnd(op, root, op0.Prog); err != nil {
			return err
		}
		analyzed[op0.Prog.key()] = prog
	}
	ip, err := pr.instrument(op, root, prog, prog.Races, nil)
	if err != nil {
		return err
	}
	if _, err := pr.instrument(op, root, prog, prog.Races, nil); err != nil {
		return err
	}
	// The service's record and replay-verify worlds and seeds.
	s := op0.RecordSeed
	return pr.recordReplay(op, root, ip,
		core.RunConfig{World: oskit.NewWorld(s), Seed: s},
		core.RunConfig{World: oskit.NewWorld(977), Seed: 977})
}
