package harness

// The observed pipeline: Observe runs the full Chimera flow for one
// program under one configuration with every stage wrapped in a tracer
// span, and aggregates the runtime counters (weak-lock sites, event
// batches, log streams, analysis cache, dynamic checker) into an
// obs.Report. It backs racecheck's -trace/-metrics flags and the
// observability determinism tests.

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oskit"
	"repro/internal/trace"
)

// ObserveOptions parameterizes one observed pipeline run. The zero value
// selects the harness defaults (config "all", epoch checker, Default()
// seeds and heap).
type ObserveOptions struct {
	// Config is the instrumentation configuration label
	// (core.ConfigOptions vocabulary). Default "all".
	Config string

	// Workers is the evaluation-world worker count. Default Default().Workers.
	Workers int

	// Parallel is the analysis worker count (relay wave scheduling).
	// Default 1.
	Parallel int

	Seed       uint64 // record/check schedule seed (default Default().Seed)
	ReplaySeed uint64 // replay schedule seed (default Default().ReplaySeed)
	HeapWords  int64  // VM heap (default Default().HeapWords)

	// Checker selects the dynamic race checker: "epoch" (default) or
	// "vector".
	Checker string

	// Cache, when non-nil, is the shared analysis cache to load through;
	// a fresh cache is used otherwise (so the report's cache section
	// reflects exactly this run).
	Cache *core.Cache

	// Clock, when non-nil, drives the tracer instead of the wall clock —
	// the determinism tests inject a virtual clock so even span
	// durations are reproducible.
	Clock func() int64
}

// ObserveTarget is the program under observation: its source plus the
// worlds to profile and evaluate it in.
type ObserveTarget struct {
	Name         string
	Source       string
	ProfileWorld func(run int) *oskit.World
	ProfileRuns  int
	EvalWorld    func(workers int) *oskit.World
}

// TargetFor wraps an embedded benchmark as an observation target.
func TargetFor(b *bench.Benchmark) ObserveTarget {
	return ObserveTarget{
		Name:         b.Name,
		Source:       b.FullSource(),
		ProfileWorld: b.ProfileWorld,
		ProfileRuns:  b.ProfileRuns,
		EvalWorld:    b.EvalWorld,
	}
}

// Observation is the result of one observed pipeline run.
type Observation struct {
	Tracer *obs.Tracer
	Report *obs.Report

	Cert          *certify.Certificate
	Races         []trace.Race
	ReplayMatches bool
}

// ObserveBench observes an embedded benchmark by name.
func ObserveBench(benchName string, o ObserveOptions) (*Observation, error) {
	b := bench.ByName(benchName)
	if b == nil {
		return nil, fmt.Errorf("unknown benchmark %q", benchName)
	}
	return Observe(TargetFor(b), o)
}

func (o *ObserveOptions) fill() {
	def := Default()
	if o.Config == "" {
		o.Config = "all"
	}
	if o.Workers == 0 {
		o.Workers = def.Workers
	}
	if o.Parallel == 0 {
		o.Parallel = 1
	}
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	if o.ReplaySeed == 0 {
		o.ReplaySeed = def.ReplaySeed
	}
	if o.HeapWords == 0 {
		o.HeapWords = def.HeapWords
	}
	if o.Checker == "" {
		o.Checker = "epoch"
	}
	if o.Cache == nil {
		o.Cache = core.NewCache()
	}
}

// Observe runs the traced pipeline end to end: analyze → MHP refinement
// → profile → instrument → certify → record → replay → dynamic check.
// The MHP refinement stage always runs (and appears in the trace) even
// for configurations that instrument the unrefined report, so every
// trace covers every pipeline stage.
func Observe(t ObserveTarget, o ObserveOptions) (*Observation, error) {
	o.fill()
	var chk trace.RaceChecker
	switch o.Checker {
	case "epoch":
		chk = trace.NewChecker(0)
	case "vector":
		chk = trace.NewVectorChecker(0)
	default:
		return nil, fmt.Errorf("unknown checker %q (want epoch or vector)", o.Checker)
	}
	var tr *obs.Tracer
	if o.Clock != nil {
		tr = obs.NewTracerWithClock(o.Clock)
	} else {
		tr = obs.NewTracer()
	}

	root := tr.Start("pipeline")
	root.SetStr("program", t.Name).SetStr("config", o.Config)
	// The record run carries no sinks (observation stays off there, as in
	// the measured harness), so the event-stream metrics describe the
	// separate checked run.
	run, err := core.Pipeline{
		Name:         t.Name,
		Source:       t.Source,
		Load:         core.LoadOptions{Workers: o.Parallel, Tracer: tr},
		Cache:        o.Cache,
		Config:       o.Config,
		ProfileWorld: t.ProfileWorld,
		ProfileRuns:  t.ProfileRuns,
		ProfileSeed:  10_000,
		Certify:      true,
		World:        func() *oskit.World { return t.EvalWorld(o.Workers) },
		Seed:         o.Seed,
		ReplaySeed:   o.ReplaySeed,
		HeapWords:    o.HeapWords,
		Record:       true,
		RecordTo:     io.Discard,
		Replay:       true,
		Checkers:     []trace.RaceChecker{chk},
	}.Run()
	if run.ReplayErr != nil {
		err = &core.StageError{Stage: core.StageReplay, Err: run.ReplayErr}
	}
	if err != nil {
		return nil, stageErr(t.Name, err)
	}
	root.End()

	m := run.Metrics(0)
	rpt := &obs.Report{
		Schema:    obs.Schema,
		Program:   t.Name,
		Config:    o.Config,
		Stages:    tr.Stages(),
		WeakLocks: m.WeakLocks,
		Events:    m.Events,
		Log:       &m.Log,
		Checker:   &obs.Checker{Name: o.Checker, Races: len(chk.Races()), WallNS: run.CheckWallNS},
	}
	hits, partial, misses := o.Cache.Stats()
	rpt.Cache = &obs.CacheStats{Hits: hits, PartialHits: partial, Misses: misses}
	rpt.SummaryStore = o.Cache.SummaryStats()

	return &Observation{
		Tracer: tr, Report: rpt,
		Cert: run.Cert, Races: chk.Races(), ReplayMatches: run.ReplayMatches,
	}, nil
}
