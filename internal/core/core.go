// Package core orchestrates the Chimera pipeline (paper Fig. 1):
//
//	parse → type-check → points-to → call graph → RELAY race detection
//	  → profile non-concurrent functions → clique analysis
//	  → symbolic bounds → weak-lock instrumentation
//	  → record on the simulated multicore → replay → verify determinism
//
// It is the programmatic API behind the root chimera package, the CLI
// tools, and the benchmark harness.
package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/callgraph"
	"repro/internal/certify"
	"repro/internal/escape"
	"repro/internal/instrument"
	"repro/internal/mhp"
	"repro/internal/minic/ast"
	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/obs"
	"repro/internal/oskit"
	"repro/internal/pointsto"
	"repro/internal/profile"
	"repro/internal/relay"
	"repro/internal/replay"
	"repro/internal/summary"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/weaklock"
)

// Program is a fully analyzed MiniC program. After Load returns, every
// field is read-only, so one Program can back any number of concurrent
// instrumentation configs, recordings and replays.
type Program struct {
	Name   string
	Source string
	File   *ast.File
	Info   *types.Info
	PTA    *pointsto.Analysis
	CG     *callgraph.Graph
	Races  *relay.Report
	Code   *vm.Program

	// AnalysisWallNS is the wall-clock time Load spent producing this
	// artifact (parse through RELAY). It feeds the harness's
	// analysis_wall_ns accounting: with the analysis cache, the cost is
	// paid once per benchmark and amortized over every config.
	AnalysisWallNS int64

	// Incremental is set by LoadIncremental: what the summary-store-backed
	// analysis reused and recomputed. Nil on every other load.
	Incremental *relay.IncrementalStats

	// refined memoizes RacesFor's refined reports at index mhp + 2 ×
	// precision; slot 0 (no refinement) is p.Races and stays unused.
	refined [4]struct {
		once sync.Once
		rep  *relay.Report
	}
}

// LoadOptions selects how a program is loaded. The zero value is the
// sequential whole-program load.
type LoadOptions struct {
	// Workers bounds the RELAY summary walk's wave workers
	// (relay.AnalyzeParallel); <= 1 is sequential. The analysis is
	// byte-identical for every value.
	Workers int

	// Tracer, when non-nil, wraps each stage in a span (nil disables
	// tracing at zero cost). Stage attributes carry the headline artifact
	// sizes — SCC/wave counts on the call graph, pair counts on RELAY,
	// reuse counts on store-backed loads — and are a pure function of the
	// source and the store state, never of the worker count.
	Tracer *obs.Tracer

	// store, set only by LoadIncremental, backs the RELAY summary walk
	// with the content-addressed summary store
	// (relay.AnalyzeIncremental): function summaries whose keys hit the
	// store are reused, only the dirty SCC cone is recomputed, and
	// recomputed summaries are stored for the next load. The Program is
	// byte-identical (race report, refinements, instrumented source) to a
	// store-less load, for any store contents.
	store *summary.Store

	// execOnly skips the static analysis (points-to, call graph, RELAY):
	// PTA, CG and Races stay nil. Instrumented programs are reloaded this
	// way — they are only ever executed, never re-analyzed.
	execOnly bool
}

// Load parses, checks, analyzes and compiles a program with the
// sequential RELAY summary walk.
func Load(name, src string) (*Program, error) {
	return LoadWith(name, src, LoadOptions{})
}

// LoadIncremental is Load with the RELAY summary computation
// wave-scheduled over `workers` goroutines and backed by a summary store
// (see LoadOptions.store). No product path loads this way; the summary
// library stays for the repository benchmark's summary.load probe (see
// docs/incremental.md).
func LoadIncremental(name, src string, workers int, store *summary.Store) (*Program, error) {
	return LoadWith(name, src, LoadOptions{Workers: workers, store: store})
}

// LoadWith is the one load body behind every entry point: parse →
// type-check → compile → Analyze, each stage traced when o.Tracer is
// set.
func LoadWith(name, src string, o LoadOptions) (*Program, error) {
	start := time.Now()
	tr := o.Tracer
	sp := tr.Start("lex-parse")
	file, err := parser.Parse(name, src)
	sp.SetAttr("bytes", int64(len(src))).End()
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	sp = tr.Start("typecheck")
	info, err := types.Check(file)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("check %s: %w", name, err)
	}
	sp = tr.Start("compile")
	code, err := vm.Compile(info)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	sp.SetAttr("funcs", int64(len(code.Funcs))).End()
	var p *Program
	if o.execOnly {
		p = &Program{Name: name, Source: src, File: file, Info: info}
	} else {
		p = Analyze(name, src, file, info, o)
	}
	p.Code = code
	p.AnalysisWallNS = time.Since(start).Nanoseconds()
	return p, nil
}

// Analyze runs the static analysis — points-to → call graph → RELAY —
// over a type-checked file, with LoadWith's spans and RELAY options. The
// Program is not compiled (Code is nil), so it cannot run: it serves
// one-shot static verdicts, which need no executable and so hold for
// programs without a main function too.
func Analyze(name, src string, file *ast.File, info *types.Info, o LoadOptions) *Program {
	start := time.Now()
	tr := o.Tracer
	p := &Program{Name: name, Source: src, File: file, Info: info}
	sp := tr.Start("points-to")
	p.PTA = pointsto.Analyze(p.Info)
	sp.End()
	sp = tr.Start("callgraph")
	p.CG = callgraph.Build(p.Info, p.PTA)
	sp.SetAttr("sccs", int64(len(p.CG.SCCs))).
		SetAttr("waves", int64(len(p.CG.Waves()))).End()
	// No workers attribute: analysis parallelism is an execution detail,
	// and the stage attributes must be a pure function of the source so
	// masked metrics reports compare byte-identically.
	sp = tr.Start("relay")
	if o.store != nil {
		p.Races, p.Incremental = relay.AnalyzeIncremental(p.Info, p.PTA, p.CG, o.Workers, o.store)
	} else {
		p.Races = relay.AnalyzeParallel(p.Info, p.PTA, p.CG, o.Workers)
	}
	sp.SetAttr("pairs", int64(len(p.Races.Pairs))).
		SetAttr("racy_funcs", int64(len(p.Races.RacyFuncs))).
		SetAttr("racy_nodes", int64(len(p.Races.RacyNodes)))
	if st := p.Incremental; st != nil {
		sp.SetAttr("reused_funcs", int64(st.ReusedFuncs)).
			SetAttr("recomputed_funcs", int64(st.RecomputedFuncs)).
			SetAttr("dirty_sccs", int64(st.DirtySCCs))
	}
	sp.End()
	p.AnalysisWallNS = time.Since(start).Nanoseconds()
	return p
}

// RunConfig parameterizes one execution of a program. The weak-lock
// table of an instrumented program is not part of it: every entry point
// that runs one takes the table explicitly.
type RunConfig struct {
	World *oskit.World
	Seed  uint64
	Cost  vm.CostModel
	// MaxSteps overrides the default instruction budget if nonzero.
	MaxSteps int64
	// HeapWords overrides the default VM heap size if nonzero.
	HeapWords int64
	// Sinks are additional batched event sinks (e.g. the observability
	// layer's counters) attached to the run. Attaching any sink turns on
	// event emission for the run.
	Sinks []vm.EventSink
}

func (rc RunConfig) vmConfig(table *weaklock.Table) vm.Config {
	return vm.Config{
		Inputs:    vm.LiveInputs{OS: rc.World},
		Cost:      rc.Cost,
		Seed:      rc.Seed,
		WL:        table,
		MaxSteps:  rc.MaxSteps,
		HeapWords: rc.HeapWords,
		Sinks:     rc.Sinks,
	}
}

// RunNative executes the program with no recording and no weak-lock
// table (the paper's baseline "original time").
func (p *Program) RunNative(rc RunConfig) *vm.Result {
	return vm.Run(p.Code, rc.vmConfig(nil))
}

// ProfileNonConcurrency runs the program multiple times over profile
// worlds and accumulates the set of concurrent function pairs (paper §4.1:
// "we profiled each program 20 times with various inputs").
func (p *Program) ProfileNonConcurrency(mkWorld func(run int) *oskit.World, runs int, seedBase uint64) *profile.Concurrency {
	names := make([]string, len(p.Code.Funcs))
	for i, fn := range p.Code.Funcs {
		names[i] = fn.Name
	}
	conc := profile.NewConcurrency()
	for i := 0; i < runs; i++ {
		col := profile.NewCollector()
		cfg := vm.Config{
			Inputs: vm.LiveInputs{OS: mkWorld(i)},
			Seed:   seedBase + uint64(i)*1000003,
			Funcs:  col,
		}
		r := vm.Run(p.Code, cfg)
		if r.Err != nil {
			// Profile runs on racy programs can fail (e.g. a check
			// tripped by a manifested race); the partial profile is
			// still usable — observed concurrency stands.
			_ = r.Err
		}
		conc.AddRun(col, names)
	}
	return conc
}

// Instrumented is a Chimera-transformed program ready to record.
type Instrumented struct {
	Orig   *Program
	Prog   *Program // the reparsed, recompiled instrumented program
	Table  *weaklock.Table
	Report *instrument.Result

	// Rep is the race report the instrumentation was derived from (the
	// MHP-refined report under "+mhp" configs). The certifier validates
	// the instrumented source against exactly this report.
	Rep *relay.Report

	certOnce sync.Once
	cert     *certify.Certificate
	certWall int64
	certErr  error
}

// Certify runs the static translation validator (internal/certify) over
// the instrumented source: race-pair coverage, weak-lock balance, and
// lock-order deadlock-freedom, recomputed independently of the
// instrumenter's bookkeeping. The certificate is computed once per
// Instrumented and shared — like RacesFor's reports it is part of the
// read-only artifact a Cache hands out, safe for concurrent pipeline
// workers. The config label is stamped into the certificate on the
// first call. The returned wall time is the certification cost of that
// first computation, in nanoseconds.
func (ip *Instrumented) Certify(config string) (*certify.Certificate, int64, error) {
	ip.certOnce.Do(func() {
		start := time.Now()
		ip.cert, ip.certErr = certify.Certify(ip.Rep, ip.Report.Source, ip.Orig.Name, config)
		ip.certWall = time.Since(start).Nanoseconds()
	})
	return ip.cert, ip.certWall, ip.certErr
}

// Instrument applies the weak-lock transformation and recompiles.
func (p *Program) Instrument(conc *profile.Concurrency, opts instrument.Options) (*Instrumented, error) {
	return p.InstrumentWith(p.Races, conc, opts)
}

// RacesFor returns the race report a configuration instruments: the
// RELAY report, refined by the MHP analysis (internal/mhp) and/or the
// static precision layer (internal/escape: thread-escape, must-lockset
// sharpening, read-only sharing) as selected. Precision over MHP refines
// the MHP-refined report. p.Races itself is never modified, so the
// paper-faithful unrefined report stays available.
//
// Each refined report is computed once and shared; it is safe to call
// from concurrent pipeline workers and is part of the read-only analysis
// artifact a Cache hands out.
func (p *Program) RacesFor(withMHP, withPrecision bool) *relay.Report {
	if !withMHP && !withPrecision {
		return p.Races
	}
	i := 0
	if withMHP {
		i = 1
	}
	if withPrecision {
		i += 2
	}
	slot := &p.refined[i]
	slot.once.Do(func() {
		switch {
		case !withPrecision:
			slot.rep = mhp.Refine(p.Races)
		case withMHP:
			slot.rep = escape.Refine(p.RacesFor(true, false))
		default:
			slot.rep = escape.Refine(p.Races)
		}
	})
	return slot.rep
}

// InstrumentWith is Instrument with an explicit race report — typically
// one of RacesFor's refined reports, so statically pruned pairs get no
// weak locks.
func (p *Program) InstrumentWith(rep *relay.Report, conc *profile.Concurrency, opts instrument.Options) (*Instrumented, error) {
	res, err := instrument.Instrument(rep, conc, opts)
	if err != nil {
		return nil, fmt.Errorf("instrument %s: %w", p.Name, err)
	}
	ip, err := LoadWith(p.Name+".chimera", res.Source, LoadOptions{execOnly: true})
	if err != nil {
		return nil, fmt.Errorf("reload instrumented %s: %w\n--- source ---\n%s", p.Name, err, res.Source)
	}
	return &Instrumented{Orig: p, Prog: ip, Table: res.Table, Report: res, Rep: rep}, nil
}

// Record executes the instrumented program while logging inputs and sync
// order; it returns the run result and the log. Prog may be any program
// (e.g. the DRF-only baseline: an uninstrumented program, nil Table).
func (ip *Instrumented) Record(rc RunConfig) (*vm.Result, *replay.Log) {
	r, log, _ := recordProgram(ip.Prog, ip.Table, rc, nil)
	return r, log
}

// RecordTo is Record with the log additionally streamed to w; see
// recordProgram.
func (ip *Instrumented) RecordTo(rc RunConfig, w io.Writer) (*vm.Result, *replay.Log, *replay.LogWriter) {
	return recordProgram(ip.Prog, ip.Table, rc, w)
}

// recordProgram records p, additionally streaming the log to w (when
// non-nil) in the chunked on-disk format as records are committed. The
// returned LogWriter is already closed; its byte counters attribute the
// compressed stream to inputs vs sync order (nil when w is nil). Streaming
// adds no simulated cost — the cost model already charges for logging.
func recordProgram(p *Program, table *weaklock.Table, rc RunConfig, w io.Writer) (*vm.Result, *replay.Log, *replay.LogWriter) {
	rec := replay.NewRecorder(rc.World, rc.Cost)
	var lw *replay.LogWriter
	if w != nil {
		lw = replay.NewLogWriter(w)
		rec.AttachWriter(lw)
	}
	cfg := rc.vmConfig(table)
	cfg.Inputs = rec
	cfg.Monitor = rec
	r := vm.Run(p.Code, cfg)
	if lw != nil {
		if err := lw.Close(); err != nil && r.Err == nil {
			r.Err = fmt.Errorf("record stream: %w", err)
		}
	}
	return r, rec.Log(), lw
}

// ReplayProgram re-executes a program against a recording; the seed may
// differ from the recording seed — determinism must come from the log.
//
// Recordings containing forced weak-lock preemptions (timeouts) replay
// too: each preemption was logged with a deterministic anchor (the owner's
// retired-instruction and committed-sync counts — the role DoublePlay's
// instruction-pointer/branch-count pair plays in §2.3), and the VM injects
// it at exactly that point. This goes beyond the paper, which left the
// replay side unported. Organic timeouts are disabled during replay so the
// only preemptions are the recorded ones.
func ReplayProgram(p *Program, table *weaklock.Table, log *replay.Log, rc RunConfig) (*vm.Result, error) {
	return replayWith(p, table, replay.NewReplayer(log, rc.Cost), rc)
}

// replayWith runs p gated by rep and applies the divergence checks every
// replay shares: a replayer error, a run error, or a recording the run did
// not fully consume.
func replayWith(p *Program, table *weaklock.Table, rep *replay.Replayer, rc RunConfig) (*vm.Result, error) {
	cfg := rc.vmConfig(table)
	cfg.Inputs = rep
	cfg.Monitor = rep
	cfg.DisableTimeouts = true
	r := vm.Run(p.Code, cfg)
	if rep.Err() != nil {
		return r, rep.Err()
	}
	if r.Err != nil {
		return r, r.Err
	}
	if !rep.Drained() {
		return r, fmt.Errorf("replay divergence: order log not fully consumed")
	}
	return r, nil
}

// Replay re-executes the instrumented program against a recording.
func (ip *Instrumented) Replay(log *replay.Log, rc RunConfig) (*vm.Result, error) {
	return ReplayProgram(ip.Prog, ip.Table, log, rc)
}

// ReplayProgramStream is ReplayProgram reading the recording from a
// CHIMLOG2 stream (e.g. an on-disk spool) through replay.NewStreamReplayer
// instead of a decoded in-memory Log: chunks are decoded as the replay
// consumes them, so memory stays bounded by one chunk per stream no
// matter how long the recording is. This is the replay path of the
// service's replay-verify jobs, which must never hold whole logs in
// memory. The divergence checks are ReplayProgram's (replayWith).
func ReplayProgramStream(p *Program, table *weaklock.Table, r io.ReadSeeker, rc RunConfig) (*vm.Result, error) {
	rep, err := replay.NewStreamReplayer(r, rc.Cost)
	if err != nil {
		return nil, fmt.Errorf("open log stream: %w", err)
	}
	return replayWith(p, table, rep, rc)
}

// VerifyDeterministicReplay records with one seed and replays with another;
// it returns an error unless the replay bit-matches the recording.
func (ip *Instrumented) VerifyDeterministicReplay(world func() *oskit.World, recSeed, repSeed uint64) error {
	recRes, log := ip.Record(RunConfig{World: world(), Seed: recSeed})
	if recRes.Err != nil {
		return fmt.Errorf("record failed: %w", recRes.Err)
	}
	repRes, err := ip.Replay(log, RunConfig{World: world(), Seed: repSeed})
	if err != nil {
		return fmt.Errorf("replay failed: %w", err)
	}
	if recRes.Hash64() != repRes.Hash64() {
		return fmt.Errorf("replay diverged: recorded hash %x, replayed hash %x\nrecorded output: %q\nreplayed output: %q",
			recRes.Hash64(), repRes.Hash64(), recRes.Output, repRes.Output)
	}
	return nil
}

// RunDeterministic executes an instrumented program under the
// deterministic-execution arbiter (the paper's §9 vision: "future work may
// be able to leverage the data-race-freedom provided by Chimera to provide
// stronger guarantees such as ... deterministic execution"). The result is
// a pure function of the program and its input world: independent of the
// schedule seed and of the cost model, with no recording involved.
// Organic weak-lock timeouts are disabled — time-based preemption would
// reintroduce timing dependence — so programs that block while holding a
// weak-lock deadlock visibly instead.
func (ip *Instrumented) RunDeterministic(rc RunConfig) *vm.Result {
	cfg := rc.vmConfig(ip.Table)
	cfg.Deterministic = true
	cfg.DisableTimeouts = true
	return vm.Run(ip.Prog.Code, cfg)
}

// CheckDynamicRaces runs the program under the happens-before race checker
// (FastTrack-style adaptive epochs) and returns the distinct races
// observed. For instrumented programs pass the weak-lock table so
// weak-lock edges count as synchronization.
func CheckDynamicRaces(p *Program, table *weaklock.Table, rc RunConfig) ([]trace.Race, *vm.Result) {
	chk := trace.NewChecker(0)
	r := CheckDynamicRacesWith(p, table, rc, chk)
	return chk.Races(), r
}

// CheckDynamicRacesWith runs the program with explicit race checkers
// attached as batched event sinks — the epoch checker for production, the
// full-vector oracle for differential testing. Passing both runs them over
// the one event stream of a single execution.
func CheckDynamicRacesWith(p *Program, table *weaklock.Table, rc RunConfig, chks ...trace.RaceChecker) *vm.Result {
	cfg := rc.vmConfig(table)
	for _, chk := range chks {
		cfg.Sinks = append(cfg.Sinks, chk)
	}
	return vm.Run(p.Code, cfg)
}
