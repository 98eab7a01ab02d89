package service

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/harness"

	"repro/internal/certify"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/instrument"
	"repro/internal/mhp"
	"repro/internal/minic/ast"
	"repro/internal/oskit"

	"repro/internal/relay"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// knownConfig reports whether name is one of the four instrumentation
// configurations; the MHP and precision refinements are separate
// request fields, never part of the name.
func knownConfig(name string) bool {
	_, mhp, precision, ok := core.ConfigOptions(name)
	return ok && !mhp && !precision
}

// RunRequest executes one racecheck request and returns its process
// exit code. It is the entire verdict-producing pipeline behind both the
// offline CLI (cache == nil: every load computes afresh) and the chimerad
// job engine (cache is the tenant's): one code path, so a verdict's bytes
// cannot depend on which front end asked for it. The cache is a pure
// accelerator — its artifacts are byte-identical to a fresh load (the
// determinism test layer) — so it changes wall time and cache counters,
// never a verdict byte.
func RunRequest(req *Request, cache *core.Cache, out, errOut io.Writer) int {
	if req.Gen != "" {
		if req.Dynamic || req.Certify || req.Bench != "" || len(req.Args) != 0 {
			fmt.Fprintln(errOut, "racecheck: -gen takes a spec and combines only with -v")
			return ExitUsage
		}
		return runGen(req, out, errOut)
	}

	if req.TracePath != "" || req.MetricsPath != "" {
		if !req.Dynamic {
			fmt.Fprintln(errOut, "racecheck: -trace/-metrics require -dynamic")
			return ExitUsage
		}
		return runObserved(req, out, errOut)
	}

	if req.Dynamic {
		if req.Bench != "" {
			if len(req.Args) != 0 {
				req.usage(errOut)
				return ExitUsage
			}
			return runDynamicBench(cache, req.Bench, req.Checker, req.Seed, out, errOut)
		}
		prog, name, code := req.load(cache, errOut)
		if code != ExitOK {
			return code
		}
		sp := req.Tracer.Start("dynamic-check")
		defer sp.End()
		return runDynamic(name, prog, oskit.NewWorld(req.Seed), req.Seed, req.Checker, out, errOut)
	}

	if req.Certify && !knownConfig(req.Config) {
		fmt.Fprintf(errOut, "racecheck: unknown -config %q\n", req.Config)
		return ExitUsage
	}
	label := req.Config
	if req.MHP {
		label += "+mhp"
	}
	if req.Precision {
		label += "+precision"
	}

	if req.Bench != "" {
		if !req.Certify || len(req.Args) != 0 || req.Instrumented != "" {
			req.usage(errOut)
			return ExitUsage
		}
		return runBench(cache, req.Bench, label, req.CertOut, out, errOut)
	}

	prog, name, code := req.load(cache, errOut)
	if code != ExitOK {
		return code
	}
	rep := prog.Races
	if req.Pairs {
		sp := req.Tracer.Start("report")
		printPairProvenance(req.Args[0], rep, out)
		sp.End()
		return ExitOK
	}
	if req.MHP {
		sp := req.Tracer.Start("mhp-refine")
		refined := prog.RacesFor(true, false)
		sp.SetAttr("kept", int64(len(refined.Pairs))).End()
		fmt.Fprintf(out, "%s: %d potential race pairs, MHP kept %d, pruned %d\n",
			req.Args[0], len(rep.Pairs), len(refined.Pairs), len(refined.Pruned))
		printPruned(out, "  pruned: %-13s %s\n", refined.Pruned)
		rep = refined
	}
	if req.Precision {
		sp := req.Tracer.Start("precision-refine")
		prior := len(rep.Pruned)
		refined := prog.RacesFor(req.MHP, true)
		sp.SetAttr("kept", int64(len(refined.Pairs))).End()
		fmt.Fprintf(out, "%s: precision kept %d, discharged %d\n",
			req.Args[0], len(refined.Pairs), len(refined.Pruned)-prior)
		// RefinePrecision carries prior prunes first, so the tail is ours.
		printPruned(out, "  discharged: %-9s %s\n", refined.Pruned[prior:])
		rep = refined
	}

	sp := req.Tracer.Start("report")
	fmt.Fprintf(out, "%s: %d potential race pairs, %d racy nodes, %d racy functions\n",
		req.Args[0], len(rep.Pairs), len(rep.RacyNodes), len(rep.RacyFuncs))

	pairsByFn := make(map[string]int)
	for _, p := range rep.Pairs {
		fp := p.FnPair()
		pairsByFn[fp[0]+" <-> "+fp[1]]++
	}
	var keys []string
	for k := range pairsByFn {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(out, "racy function pairs:")
	for _, k := range keys {
		fmt.Fprintf(out, "  %-40s %d race pair(s)\n", k, pairsByFn[k])
	}

	if req.Verbose {
		pairs := append([]*relay.RacePair(nil), rep.Pairs...)
		sort.SliceStable(pairs, func(i, j int) bool { return pairLess(pairs[i], pairs[j]) })
		fmt.Fprintln(out, "race pairs:")
		for _, p := range pairs {
			fmt.Fprintf(out, "  %s\n", pairString(p))
		}
	}

	if req.ShowCFG {
		var names []string
		for fn := range rep.RacyFuncs {
			names = append(names, fn.Name)
		}
		sort.Strings(names)
		for _, name := range names {
			fn := prog.Info.Funcs[name]
			g := cfg.Build(fn.Decl)
			fmt.Fprint(out, g.String())
			loops := g.NaturalLoops()
			fmt.Fprintf(out, "  %d natural loop(s)\n", len(loops))
		}
	}

	sp.End() // report

	if !req.Certify {
		return ExitOK
	}

	// Certification: validate the instrumented output (either freshly
	// produced here, or a pre-instrumented file given explicitly)
	// against the report computed above.
	var instSrc string
	if req.Instrumented != "" {
		b, err := os.ReadFile(req.Instrumented)
		if err != nil {
			fmt.Fprintln(errOut, "racecheck:", err)
			return ExitFailure
		}
		instSrc = string(b)
	} else {
		sp = req.Tracer.Start("instrument")
		opts, _, _, _ := core.ConfigOptions(req.Config)
		res, err := instrument.Instrument(rep, nil, opts)
		sp.End()
		if err != nil {
			fmt.Fprintln(errOut, "racecheck: instrument:", err)
			return ExitFailure
		}
		instSrc = res.Source
	}
	sp = req.Tracer.Start("certify")
	cert, err := certify.Certify(rep, instSrc, name, label)
	sp.End()
	if err != nil {
		fmt.Fprintln(errOut, "racecheck: certify:", err)
		return ExitFailure
	}
	return reportCert(cert, req.CertOut, out, errOut)
}

// load reads the request's one program and loads it through the cache
// inside an "analyze" span, with the loader's stages traced beneath it
// on a miss. A load failure — parse, type or compile error, including a
// program without main — prints the loader's error.
func (req *Request) load(cache *core.Cache, errOut io.Writer) (*core.Program, string, int) {
	src, name, code := req.source(errOut)
	if code != ExitOK {
		return nil, "", code
	}
	sp := req.Tracer.Start("analyze")
	prog, err := cache.Load(name, src, core.LoadOptions{Workers: req.Parallel, Tracer: req.Tracer})
	if err != nil {
		sp.End()
		fmt.Fprintln(errOut, "racecheck:", err)
		return nil, "", ExitFailure
	}
	sp.SetAttr("pairs", int64(len(prog.Races.Pairs))).End()
	return prog, name, ExitOK
}

// runObserved runs the fully observed pipeline (analyze → … → record →
// replay → dynamic check) for one benchmark or source file and writes the
// Perfetto trace and/or the metrics report. Output files are created
// before any work runs, and an unwritable path is its own failure class
// (ExitArtifact) so scripts can tell "could not write the artifacts" from
// "the pipeline failed".
func runObserved(req *Request, out, errOut io.Writer) int {
	checker, seed, config := req.Checker, req.Seed, req.Config
	if checker != "epoch" && checker != "vector" {
		fmt.Fprintf(errOut, "racecheck: -trace/-metrics support -checker epoch or vector, not %q\n", checker)
		return ExitUsage
	}
	if !knownConfig(config) {
		fmt.Fprintf(errOut, "racecheck: unknown -config %q\n", config)
		return ExitUsage
	}
	label := config
	if req.MHP {
		label += "+mhp"
	}
	if req.Precision {
		label += "+precision"
	}

	var target harness.ObserveTarget
	switch {
	case req.Bench == "all":
		fmt.Fprintln(errOut, "racecheck: -trace/-metrics observe a single benchmark, not -bench all")
		return ExitUsage
	case req.Bench != "":
		if len(req.Args) != 0 {
			req.usage(errOut)
			return ExitUsage
		}
		b := bench.ByName(req.Bench)
		if b == nil {
			fmt.Fprintf(errOut, "racecheck: unknown benchmark %q\n", req.Bench)
			return ExitUsage
		}
		target = harness.TargetFor(b)
	default:
		src, name, code := req.source(errOut)
		if code != ExitOK {
			return code
		}
		target = harness.ObserveTarget{
			Name:         name,
			Source:       src,
			ProfileWorld: func(run int) *oskit.World { return oskit.NewWorld(seed + uint64(run)) },
			ProfileRuns:  5,
			EvalWorld:    func(int) *oskit.World { return oskit.NewWorld(seed) },
		}
	}

	// Open every requested artifact up front: a path we cannot write is
	// reported before minutes of pipeline work, with a distinct exit code.
	outputs := make(map[string]*os.File)
	for _, path := range []string{req.TracePath, req.MetricsPath} {
		if path == "" {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(errOut, "racecheck: cannot write output artifact: %v\n", err)
			return ExitArtifact
		}
		defer f.Close()
		outputs[path] = f
	}

	obsn, err := harness.Observe(target, harness.ObserveOptions{
		Config:   label,
		Parallel: req.Parallel,
		Seed:     seed,
		Checker:  checker,
	})
	if err != nil {
		fmt.Fprintf(errOut, "racecheck: %s: %v\n", target.Name, err)
		return ExitFailure
	}

	if req.TracePath != "" {
		data, err := obsn.Tracer.Perfetto()
		if err == nil {
			_, err = outputs[req.TracePath].Write(data)
		}
		if err != nil {
			fmt.Fprintf(errOut, "racecheck: write %s: %v\n", req.TracePath, err)
			return ExitArtifact
		}
	}
	if req.MetricsPath != "" {
		data, err := obsn.Report.Marshal()
		if err == nil {
			_, err = outputs[req.MetricsPath].Write(data)
		}
		if err != nil {
			fmt.Fprintf(errOut, "racecheck: write %s: %v\n", req.MetricsPath, err)
			return ExitArtifact
		}
	}

	rpt := obsn.Report
	fmt.Fprintf(out, "%s [%s]: %d stage span(s), %d weak-lock site(s), %d dynamic race(s)\n",
		rpt.Program, rpt.Config, len(rpt.Stages), len(rpt.WeakLocks.Sites), rpt.Checker.Races)
	fmt.Fprintf(out, "  weak-lock acquires %d (order-log acquire entries %d), releases %d, forced %d, timeouts %d\n",
		rpt.WeakLocks.Acquires, rpt.WeakLocks.AcquireOrderEntries,
		rpt.WeakLocks.Releases, rpt.WeakLocks.Forced, rpt.WeakLocks.Timeouts)
	fmt.Fprintf(out, "  log %d bytes (%d input / %d order records), events %d in %d batches\n",
		rpt.Log.TotalBytes, rpt.Log.InputRecords, rpt.Log.OrderRecords,
		rpt.Events.Emitted, rpt.Events.Batches)
	if !obsn.ReplayMatches {
		fmt.Fprintf(errOut, "racecheck: %s: replay did not match the recording\n", target.Name)
		return ExitFailure
	}
	if rpt.WeakLocks.Acquires != rpt.WeakLocks.AcquireOrderEntries {
		fmt.Fprintf(errOut, "racecheck: %s: per-site acquire total %d disagrees with order log %d\n",
			target.Name, rpt.WeakLocks.Acquires, rpt.WeakLocks.AcquireOrderEntries)
		return ExitFailure
	}
	if req.TracePath != "" {
		fmt.Fprintf(out, "  trace written to %s\n", req.TracePath)
	}
	if req.MetricsPath != "" {
		fmt.Fprintf(out, "  metrics written to %s\n", req.MetricsPath)
	}
	return ExitOK
}

// runDynamic executes one program with the selected dynamic race
// checker(s) attached as batched event sinks and prints the verdict.
// With -checker both the epoch checker and the full-vector oracle observe
// one event stream of a single execution and must agree.
func runDynamic(name string, prog *core.Program, world *oskit.World, seed uint64, checker string, out, errOut io.Writer) int {
	var chks []trace.RaceChecker
	switch checker {
	case "epoch":
		chks = []trace.RaceChecker{trace.NewChecker(0)}
	case "vector":
		chks = []trace.RaceChecker{trace.NewVectorChecker(0)}
	case "both":
		chks = []trace.RaceChecker{trace.NewChecker(0), trace.NewVectorChecker(0)}
	default:
		fmt.Fprintf(errOut, "racecheck: unknown -checker %q (want epoch, vector, or both)\n", checker)
		return ExitUsage
	}
	start := time.Now()
	r := core.CheckDynamicRacesWith(prog, nil, core.RunConfig{World: world, Seed: seed}, chks...)
	wall := time.Since(start)
	if r.Err != nil {
		fmt.Fprintf(errOut, "racecheck: %s: run: %v\n", name, r.Err)
		return ExitFailure
	}
	races := chks[0].Races()
	fmt.Fprintf(out, "%s: %d dynamic race(s) (checker=%s, seed=%d, wall=%s)\n",
		name, len(races), checker, seed, wall.Round(time.Microsecond))
	if ec, ok := chks[0].(*trace.EpochChecker); ok {
		fmt.Fprintf(out, "  checker share: %s\n", time.Duration(ec.WallNS()).Round(time.Microsecond))
	}
	for _, rc := range races {
		fmt.Fprintf(out, "  %s\n", rc)
	}
	if checker == "both" {
		if !trace.SameVerdicts(chks[0].Races(), chks[1].Races()) {
			fmt.Fprintf(errOut, "racecheck: %s: epoch and vector checkers diverged:\n  epoch:  %v\n  vector: %v\n",
				name, chks[0].Races(), chks[1].Races())
			return ExitFailure
		}
		fmt.Fprintln(out, "  epoch and full-vector verdicts agree")
	}
	return ExitOK
}

// runDynamicBench runs the dynamic checker over embedded benchmarks'
// original (uninstrumented) programs under their evaluation worlds.
func runDynamicBench(cache *core.Cache, name, checker string, seed uint64, out, errOut io.Writer) int {
	list, ok := selectBench(name, errOut)
	if !ok {
		return ExitUsage
	}
	status := ExitOK
	for _, b := range list {
		prog, err := cache.Load(b.Name, b.FullSource(), core.LoadOptions{Workers: 1})
		if err != nil {
			fmt.Fprintf(errOut, "racecheck: %s: %v\n", b.Name, err)
			return ExitFailure
		}
		if rc := runDynamic(b.Name, prog, b.EvalWorld(4), seed, checker, out, errOut); rc != ExitOK {
			status = rc
		}
	}
	return status
}

// runGen is the one-shot repro path for generated scenarios: parse the
// spec, generate the program, and push it through the complete soundness
// pipeline inside a "gen-pipeline" span. On failure it also prints a
// greedily minimized spec.
func runGen(req *Request, out, errOut io.Writer) int {
	spec, err := scenario.Parse(req.Gen)
	if err != nil {
		fmt.Fprintln(errOut, "racecheck:", err)
		return ExitUsage
	}
	sp := req.Tracer.Start("gen-pipeline").SetStr("spec", spec.String())
	r := scenario.RunPipeline(spec)
	sp.End()
	if req.Verbose {
		fmt.Fprint(out, r.Source)
	}
	fmt.Fprintf(out, "%s: %d static race pair(s), MHP kept %d, %d weak lock(s), %d dynamic race(s) on the original\n",
		spec, r.StaticPairs, r.KeptPairs, r.WeakLocks, r.OriginalRaces)
	fmt.Fprintf(out, "  stages passed: %s\n", strings.Join(r.Stages, " → "))
	if r.OK() {
		fmt.Fprintln(out, "  soundness pipeline: ok (certified clean, replay bit-identical, checkers agree)")
		return ExitOK
	}
	fmt.Fprintf(errOut, "racecheck: %v\n", r.Err)
	if min := scenario.Minimize(spec); min != spec {
		fmt.Fprintf(errOut, "racecheck: minimized repro: racecheck -gen '%s'\n", min)
	}
	return ExitFailure
}

// runBench certifies embedded benchmarks: the pipeline runs analysis,
// profile and instrumentation per benchmark, and the instrumented output
// is certified against the same report it was derived from.
func runBench(cache *core.Cache, name, label, certOut string, out, errOut io.Writer) int {
	list, ok := selectBench(name, errOut)
	if !ok {
		return ExitUsage
	}
	status := ExitOK
	for _, b := range list {
		run, err := core.Pipeline{
			Cache:        cache,
			Name:         b.Name,
			Source:       b.FullSource(),
			Load:         core.LoadOptions{Workers: 1},
			Config:       label,
			ProfileWorld: b.ProfileWorld,
			ProfileRuns:  b.ProfileRuns,
			ProfileSeed:  10_000,
			Certify:      true,
		}.Run()
		if err != nil {
			var se *core.StageError
			if errors.As(err, &se) && se.Stage == core.StageCertify {
				fmt.Fprintf(errOut, "racecheck: %s: certify: %v\n", b.Name, err)
			} else {
				fmt.Fprintf(errOut, "racecheck: %s: %v\n", b.Name, err)
			}
			return ExitFailure
		}
		if rc := reportCert(run.Cert, certOut, out, errOut); rc != ExitOK {
			status = rc
		}
	}
	return status
}

// selectBench resolves a -bench argument: one benchmark by name, or
// "all" of them. An unknown name is reported as a usage error.
func selectBench(name string, errOut io.Writer) ([]*bench.Benchmark, bool) {
	var names []string
	if name != "all" {
		names = []string{name}
	}
	list, err := bench.Select(names...)
	if err != nil {
		fmt.Fprintln(errOut, "racecheck:", err)
		return nil, false
	}
	return list, true
}

// reportCert prints the verdict, optionally writes the JSON certificate,
// and returns the process exit status the certificate warrants.
func reportCert(cert *certify.Certificate, certOut string, out, errOut io.Writer) int {
	fmt.Fprintln(out, cert.Summary())
	data, err := certify.Render(cert)
	if err != nil {
		fmt.Fprintln(errOut, "racecheck: render certificate:", err)
		return ExitFailure
	}
	if certOut != "" {
		if err := os.MkdirAll(certOut, 0o755); err != nil {
			fmt.Fprintln(errOut, "racecheck:", err)
			return ExitFailure
		}
		fname := fmt.Sprintf("%s_%s.cert.json", cert.Program, strings.ReplaceAll(cert.Config, "+", "_"))
		if err := os.WriteFile(filepath.Join(certOut, fname), data, 0o644); err != nil {
			fmt.Fprintln(errOut, "racecheck:", err)
			return ExitFailure
		}
	}
	if !cert.OK {
		fmt.Fprint(errOut, string(data))
		return ExitFailure
	}
	return ExitOK
}

// printPairProvenance runs the full refinement chain — MHP, then the
// precision layer — over the raw RELAY report and prints one row per
// reported pair with its final disposition: pruned-by-mhp (with the MHP
// sub-reason), pruned-by-escape, pruned-by-mustlock, pruned-by-readonly,
// or instrumented. Rows are sorted by source position, then function
// pair, so the table is byte-stable and diffable across runs.
func printPairProvenance(path string, rep *relay.Report, out io.Writer) {
	refined := escape.Refine(mhp.Refine(rep))
	disposition := make(map[[2]ast.NodeID]string, len(refined.Pruned))
	counts := make(map[string]int, 5)
	for _, pp := range refined.Pruned {
		var label string
		switch pp.Reason {
		case "pre-fork", "join-ordered", "barrier-phase":
			label = "pruned-by-mhp(" + pp.Reason + ")"
			counts["pruned-by-mhp"]++
		case "escape":
			label = "pruned-by-escape"
			counts[label]++
		case "must-lock":
			label = "pruned-by-mustlock"
			counts[label]++
		case "read-only":
			label = "pruned-by-readonly"
			counts[label]++
		default:
			label = "pruned-by-" + pp.Reason
			counts[label]++
		}
		disposition[pp.Pair.Key()] = label
	}
	fmt.Fprintf(out, "%s: %d reported = %d pruned-by-mhp + %d pruned-by-escape + %d pruned-by-mustlock + %d pruned-by-readonly + %d instrumented\n",
		path, len(rep.Pairs),
		counts["pruned-by-mhp"], counts["pruned-by-escape"],
		counts["pruned-by-mustlock"], counts["pruned-by-readonly"],
		len(refined.Pairs))
	pairs := append([]*relay.RacePair(nil), rep.Pairs...)
	sort.SliceStable(pairs, func(i, j int) bool { return pairLess(pairs[i], pairs[j]) })
	for _, p := range pairs {
		label, ok := disposition[p.Key()]
		if !ok {
			label = "instrumented"
		}
		fmt.Fprintf(out, "  %-26s %s\n", label, pairString(p))
	}
}

// printPruned prints pruned pairs in source order, one format line
// (reason, pair) each.
func printPruned(out io.Writer, format string, pruned []relay.PrunedPair) {
	pruned = append([]relay.PrunedPair(nil), pruned...)
	sort.SliceStable(pruned, func(i, j int) bool { return pairLess(pruned[i].Pair, pruned[j].Pair) })
	for _, pp := range pruned {
		fmt.Fprintf(out, format, pp.Reason, pairString(pp.Pair))
	}
}

func pairString(p *relay.RacePair) string {
	return fmt.Sprintf("%s:%s [w=%v ls=%v] <-> %s:%s [w=%v ls=%v]",
		p.A.Fn.Name, p.A.Pos, p.A.Write, p.A.Lockset,
		p.B.Fn.Name, p.B.Pos, p.B.Write, p.B.Lockset)
}

// pairLess orders race pairs by source position, then function names.
func pairLess(a, b *relay.RacePair) bool {
	ka := [4]int{a.A.Pos.Line, a.A.Pos.Col, a.B.Pos.Line, a.B.Pos.Col}
	kb := [4]int{b.A.Pos.Line, b.A.Pos.Col, b.B.Pos.Line, b.B.Pos.Col}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	fa, fb := a.FnPair(), b.FnPair()
	if fa[0] != fb[0] {
		return fa[0] < fb[0]
	}
	return fa[1] < fb[1]
}
