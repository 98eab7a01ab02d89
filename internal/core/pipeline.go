package core

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/certify"
	"repro/internal/instrument"
	"repro/internal/obs"
	"repro/internal/oskit"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/weaklock"
)

// ConfigOptions maps an instrumentation configuration label to
// instrumenter options and the race-report refinements it selects. The
// label is one of the paper's Figure 5 configurations — instr,
// instr+func, instr+loop, all — optionally suffixed "+mhp" and then
// "+precision" to instrument the MHP- and/or precision-refined report.
// ok is false for any other label.
func ConfigOptions(label string) (opts instrument.Options, mhp, precision, ok bool) {
	label, precision = strings.CutSuffix(label, "+precision")
	label, mhp = strings.CutSuffix(label, "+mhp")
	switch label {
	case "instr":
		opts = instrument.NaiveOptions()
	case "instr+func":
		opts = instrument.Options{FuncLocks: true}
	case "instr+loop":
		opts = instrument.Options{LoopLocks: true, LoopBodyThreshold: 14}
	case "all":
		opts = instrument.AllOptions()
	default:
		return opts, false, false, false
	}
	return opts, mhp, precision, true
}

// Pipeline describes one run of the staged Chimera flow (paper Fig. 1):
//
//	load → race report → profile → instrument → certify → record → replay → check
//
// It is the one orchestration behind every front end: the benchmark
// harness, the observed pipeline, the scenario soundness gauntlet, the
// service's jobs and the chimera CLI. A stage runs only when the fields
// it needs are set, so each caller runs exactly the stages it names.
type Pipeline struct {
	// Prog is the analyzed program. When nil, Source is loaded under Name
	// with Load's options through Cache (a nil Cache loads afresh).
	Prog   *Program
	Name   string
	Source string
	Load   LoadOptions
	Cache  *Cache

	// Config, when set, is the instrumentation configuration label
	// (ConfigOptions): it selects the race report and the instrumenter
	// options, and certificates carry it. Inst, when set, is
	// an instrumentation already built, and the report, profile and
	// instrument stages are skipped.
	Config string
	Inst   *Instrumented

	// ProfileWorld, when set, profiles non-concurrency over ProfileRuns
	// runs in ProfileWorld(run) worlds, with schedule seeds derived from
	// ProfileSeed, before instrumenting.
	ProfileWorld func(run int) *oskit.World
	ProfileRuns  int
	ProfileSeed  uint64

	// Certify runs the static certifier over the instrumentation.
	Certify bool

	// The executions below each run in a fresh World(). Seed is the
	// record and check schedule seed, ReplaySeed the replay one;
	// HeapWords overrides the VM heap if nonzero.
	World      func() *oskit.World
	Seed       uint64
	ReplaySeed uint64
	HeapWords  int64

	// Record runs the instrumentation under the recorder, streaming the
	// CHIMLOG2 log to RecordTo when it is non-nil.
	Record   bool
	RecordTo io.Writer

	// Replay re-executes the instrumentation against this run's own
	// recording.
	Replay bool

	// Checkers, when non-empty, run one checked execution with every
	// checker attached to its event stream: the instrumentation when the
	// run has one, the original program otherwise.
	Checkers []trace.RaceChecker
}

// Run is what a pipeline run produced, stage by stage; the fields of
// stages that did not run stay zero.
type Run struct {
	Prog *Program
	Inst *Instrumented
	Cert *certify.Certificate

	Recorded     *vm.Result
	Log          *replay.Log
	LogWriter    *replay.LogWriter // the streamed log's writer (RecordTo set)
	LogBytes     int64             // bytes streamed to RecordTo
	RecordWallNS int64

	// Replayed is the replayed execution; ReplayErr is set when the
	// replay failed outright, and ReplayMatches when it ran clean and
	// bit-matched this run's recording.
	Replayed      *vm.Result
	ReplayErr     error
	ReplayMatches bool
	ReplayWallNS  int64

	Checked     *vm.Result
	CheckWallNS int64
	events      obs.EventCounter
}

// Stage names a StageError reports.
const (
	StageLoad       = "load"
	StageInstrument = "instrument"
	StageCertify    = "certify"
	StageRecord     = "record"
	StageReplay     = "replay"
	StageCheck      = "check"
)

// StageError is a pipeline failure, naming the stage that failed. Its
// text is the underlying error's.
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string { return e.Err.Error() }
func (e *StageError) Unwrap() error { return e.Err }

// Run executes the selected stages in order. The first failing stage
// ends the run with a *StageError; the partial Run is returned with it.
// An unclean certificate (Cert.OK) and a replay that fails or diverges
// (ReplayErr, ReplayMatches) are verdicts for the caller to judge, not
// failures. Each stage is
// wrapped in a span of Load.Tracer; with a tracer the MHP refinement
// always runs and is traced, so every trace covers every stage.
func (pl Pipeline) Run() (*Run, error) {
	tr := pl.Load.Tracer
	run := &Run{Prog: pl.Prog, Inst: pl.Inst}
	fail := func(stage string, err error) (*Run, error) {
		return run, &StageError{Stage: stage, Err: err}
	}

	if run.Prog == nil && run.Inst == nil {
		sp := tr.Start("analyze")
		var err error
		run.Prog, err = pl.Cache.Load(pl.Name, pl.Source, pl.Load)
		if err != nil {
			return fail(StageLoad, err)
		}
		sp.SetAttr("pairs", int64(len(run.Prog.Races.Pairs))).End()
	}

	if pl.Config != "" && run.Inst == nil {
		opts, mhp, precision, ok := ConfigOptions(pl.Config)
		if !ok {
			return fail(StageInstrument, fmt.Errorf("unknown config %q", pl.Config))
		}
		if tr != nil {
			sp := tr.Start("mhp-refine")
			refined := run.Prog.RacesFor(true, false)
			sp.SetAttr("kept", int64(len(refined.Pairs))).
				SetAttr("pruned", int64(len(refined.Pruned))).End()
		}
		rep := run.Prog.RacesFor(mhp, precision)

		var conc *profile.Concurrency
		if pl.ProfileWorld != nil {
			sp := tr.Start("profile")
			conc = run.Prog.ProfileNonConcurrency(pl.ProfileWorld, pl.ProfileRuns, pl.ProfileSeed)
			sp.SetAttr("runs", int64(pl.ProfileRuns)).
				SetAttr("concurrent_pairs", int64(conc.PairCount())).End()
		}

		sp := tr.Start("instrument")
		opts.Tracer = tr
		ip, err := run.Prog.InstrumentWith(rep, conc, opts)
		if err != nil {
			return fail(StageInstrument, err)
		}
		run.Inst = ip
		sp.SetAttr("weak_locks", int64(ip.Table.Len())).
			SetAttr("sites", int64(len(ip.Report.Sites))).End()
	}
	ip := run.Inst

	if pl.Certify {
		sp := tr.Start("certify")
		cert, _, err := ip.Certify(pl.Config)
		if err != nil {
			return fail(StageCertify, err)
		}
		run.Cert = cert
		sp.SetAttr("ok", boolAttr(cert.OK)).End()
	}

	if pl.Record {
		sp := tr.Start("record")
		cw := &countWriter{w: pl.RecordTo}
		var w io.Writer
		if pl.RecordTo != nil {
			w = cw
		}
		start := time.Now()
		run.Recorded, run.Log, run.LogWriter = recordProgram(ip.Prog, ip.Table, pl.runConfig(pl.Seed), w)
		run.RecordWallNS = time.Since(start).Nanoseconds()
		run.LogBytes = cw.n
		if err := run.Recorded.Err; err != nil {
			return fail(StageRecord, err)
		}
		sp.SetAttr("makespan", run.Recorded.Makespan).
			SetAttr("input_records", int64(run.Log.InputCount())).
			SetAttr("order_records", int64(run.Log.OrderCount())).
			SetAttr("log_bytes", run.LogBytes).End()
	}

	if pl.Replay {
		sp := tr.Start("replay")
		start := time.Now()
		run.Replayed, run.ReplayErr = ReplayProgram(ip.Prog, ip.Table, run.Log, pl.runConfig(pl.ReplaySeed))
		run.ReplayWallNS = time.Since(start).Nanoseconds()
		run.ReplayMatches = run.ReplayErr == nil && run.Recorded != nil &&
			run.Replayed.Hash64() == run.Recorded.Hash64()
		if run.ReplayErr == nil {
			sp.SetAttr("makespan", run.Replayed.Makespan)
		}
		sp.SetAttr("match", boolAttr(run.ReplayMatches)).End()
	}

	if len(pl.Checkers) > 0 {
		// A separate checked run: the checkers (pure observers) and an
		// event counter consume its batched event stream, so the
		// recorded and replayed runs above stay unobserved.
		sp := tr.Start("dynamic-check")
		prog := run.Prog
		var table *weaklock.Table
		if ip != nil {
			prog, table = ip.Prog, ip.Table
		}
		rc := pl.runConfig(pl.Seed)
		rc.Sinks = []vm.EventSink{&run.events}
		start := time.Now()
		run.Checked = CheckDynamicRacesWith(prog, table, rc, pl.Checkers...)
		run.CheckWallNS = time.Since(start).Nanoseconds()
		if err := run.Checked.Err; err != nil {
			return fail(StageCheck, err)
		}
		sp.SetAttr("races", int64(len(pl.Checkers[0].Races()))).
			SetAttr("events", run.Checked.Counters.EventsEmitted).End()
	}
	return run, nil
}

// runConfig is the execution config of one run: a fresh world and the
// given seed.
func (pl Pipeline) runConfig(seed uint64) RunConfig {
	return RunConfig{World: pl.World(), Seed: seed, HeapWords: pl.HeapWords}
}

// Metrics builds the deterministic metrics block of a run that recorded
// (with RecordTo set) and checked: per-site weak-lock counters and
// order-log totals from the recording, the checked run's event stream,
// and the streamed log's breakdown. nativeMakespan fills the makespan
// row; the observed pipeline, which runs no native baseline, passes 0.
// It is the one builder behind the harness's row metrics and the
// observed pipeline's report.
func (r *Run) Metrics(nativeMakespan int64) *obs.RowMetrics {
	wl := obs.WeakLocksFrom(r.Inst.Table, r.Recorded.WLSites)
	wl.Timeouts = r.Recorded.WLStats.Timeouts
	wl.OrderLogEntries = int64(r.Log.OrderCount(vm.SyncWeakLock))
	for key, recs := range r.Log.Orders {
		if key.Class != vm.SyncWeakLock {
			continue
		}
		for _, rec := range recs {
			if rec.Kind == vm.EvWLAcquire {
				wl.AcquireOrderEntries++
			}
		}
	}
	m := &obs.RowMetrics{
		Schema:    obs.Schema,
		Makespans: obs.Makespans{Native: nativeMakespan, Record: r.Recorded.Makespan},
		WeakLocks: wl,
		Events:    r.events.Events(r.Checked.Counters.EventsEmitted, r.Checked.Counters.EventBatches),
	}
	if r.ReplayErr == nil && r.Replayed != nil {
		m.Makespans.Replay = r.Replayed.Makespan
	}
	if lw := r.LogWriter; lw != nil {
		ws := lw.Stats()
		m.Log = obs.LogStreams{
			TotalBytes:    r.LogBytes,
			InputChunks:   ws.InputChunks,
			OrderChunks:   ws.OrderChunks,
			InputRecords:  ws.InputRecords,
			OrderRecords:  ws.OrderRecords,
			InputRawBytes: ws.InputRawBytes,
			OrderRawBytes: ws.OrderRawBytes,
			InputBytes:    ws.InputBytes,
			OrderBytes:    ws.OrderBytes,
		}
	}
	return m
}

// countWriter counts the bytes streamed through it to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
