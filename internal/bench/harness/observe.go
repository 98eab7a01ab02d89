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
// selects config "all", the epoch checker and a sequential analysis;
// every run uses Default()'s worker count, seeds and heap, and loads
// through a fresh analysis cache, so the report's cache section reflects
// exactly this run.
type ObserveOptions struct {
	// Config is the instrumentation configuration label
	// (core.ConfigOptions vocabulary). Default "all".
	Config string

	// Parallel is the analysis worker count (relay wave scheduling);
	// <= 1 is sequential.
	Parallel int

	Seed uint64 // record/check schedule seed (default Default().Seed)

	// Checker selects the dynamic race checker: "epoch" (default) or
	// "vector".
	Checker string
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
	ReplayMatches bool
}

// Observe runs the traced pipeline end to end: analyze → MHP refinement
// → profile → instrument → certify → record → replay → dynamic check.
// The MHP refinement stage always runs (and appears in the trace) even
// for configurations that instrument the unrefined report, so every
// trace covers every pipeline stage.
func Observe(t ObserveTarget, o ObserveOptions) (*Observation, error) {
	def := Default()
	if o.Config == "" {
		o.Config = "all"
	}
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	if o.Checker == "" {
		o.Checker = "epoch"
	}
	var chk trace.RaceChecker
	switch o.Checker {
	case "epoch":
		chk = trace.NewChecker(0)
	case "vector":
		chk = trace.NewVectorChecker(0)
	default:
		return nil, fmt.Errorf("unknown checker %q (want epoch or vector)", o.Checker)
	}
	tr := obs.NewTracer()
	cache := core.NewCache()

	root := tr.Start("pipeline")
	root.SetStr("program", t.Name).SetStr("config", o.Config)
	// The record run carries no sinks (observation stays off there, as in
	// the measured harness), so the event-stream metrics describe the
	// separate checked run.
	run, err := core.Pipeline{
		Name:         t.Name,
		Source:       t.Source,
		Load:         core.LoadOptions{Workers: o.Parallel, Tracer: tr},
		Cache:        cache,
		Config:       o.Config,
		ProfileWorld: t.ProfileWorld,
		ProfileRuns:  t.ProfileRuns,
		ProfileSeed:  10_000,
		Certify:      true,
		World:        func() *oskit.World { return t.EvalWorld(def.Workers) },
		Seed:         o.Seed,
		ReplaySeed:   def.ReplaySeed,
		HeapWords:    def.HeapWords,
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
	hits, partial, misses := cache.Stats()
	rpt.Cache = &obs.CacheStats{Hits: hits, PartialHits: partial, Misses: misses}
	rpt.SummaryStore = cache.SummaryStats()

	return &Observation{Tracer: tr, Report: rpt, Cert: run.Cert, ReplayMatches: run.ReplayMatches}, nil
}
