package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/summary"
)

// analyzeRequest is `racecheck -certify -mhp -precision NAME` with the
// program inline.
func analyzeRequest(p program) *service.Request {
	req := service.NewRequest()
	req.Certify, req.MHP, req.Precision = true, true, true
	req.Args = []string{p.Name}
	req.Source, req.HasSource = p.Source, true
	return req
}

// analyzeVerdict is what an analyze job returned.
type analyzeVerdict struct {
	Exit   int
	Stdout string
}

// analyzeRun is one closed-loop phase of the analyze workload.
type analyzeRun struct {
	loop     loopResult
	setupS   float64
	ops      [][]analyzeOp      // per client, in issue order
	verdicts [][]analyzeVerdict // per client, parallel to ops
	tenants  []tenantRatio
}

func runAnalyzePhase(rc runCtx, rec *recorder) (*analyzeRun, error) {
	svc, setup, err := startService(rc.spoolRoot)
	if err != nil {
		return nil, err
	}
	client := service.NewClient(svc.base)
	run := &analyzeRun{
		setupS:   setup.Seconds(),
		ops:      make([][]analyzeOp, rc.clients),
		verdicts: make([][]analyzeVerdict, rc.clients),
	}
	plans := make([]*analyzePlan, rc.clients)
	for c := range plans {
		plans[c] = newAnalyzePlan(rc.seed, c)
	}
	run.loop = closedLoop(rc.clients, analyzeBlock, rc.dur, func(c, k int) opResult {
		op := plans[c].next()
		id := opID(c, k)
		root := rec.start("op.analyze", id, nil)
		t0 := time.Now()
		v, js, err := submitAndWait(client, rec, id, root, &service.JobSpec{
			Kind:    service.JobAnalyze,
			Tenant:  tenantOf(c),
			Request: analyzeRequest(op.Prog),
		})
		root.end()
		res := opResult{LatencyNS: time.Since(t0).Nanoseconds(), Err: err}
		verdict := analyzeVerdict{Exit: -1}
		if err == nil {
			res.Jobs = []jobSample{js}
			verdict = analyzeVerdict{Exit: v.Result.ExitCode, Stdout: v.Result.Stdout}
		}
		run.ops[c] = append(run.ops[c], op)
		run.verdicts[c] = append(run.verdicts[c], verdict)
		return res
	})
	m, err := client.Metrics()
	if err := errors.Join(err, svc.stop()); err != nil {
		return nil, err
	}
	run.tenants = wholeProgramHits(m)
	return run, nil
}

// verifyAnalyze compares every verdict with an offline RunRequest of the
// same request without a cache environment, computed off the clock once
// per distinct program and kept in refs. A mismatch marks the op failed.
func verifyAnalyze(run *analyzeRun, refs map[string]*analyzeVerdict) {
	var todo []program
	queued := make(map[string]bool)
	for _, ops := range run.ops {
		for _, op := range ops {
			if k := op.Prog.key(); refs[k] == nil && !queued[k] {
				queued[k] = true
				todo = append(todo, op.Prog)
			}
		}
	}
	out := make([]analyzeVerdict, len(todo))
	forEachParallel(len(todo), func(i int) {
		var stdout, stderr bytes.Buffer
		code := service.RunRequest(analyzeRequest(todo[i]), nil, &stdout, &stderr)
		out[i] = analyzeVerdict{Exit: code, Stdout: stdout.String()}
	})
	for i, p := range todo {
		refs[p.key()] = &out[i]
	}
	i := 0
	for c, ops := range run.ops {
		for k, op := range ops {
			res := &run.loop.Ops[i+k]
			if res.Err != nil {
				continue
			}
			got, want := run.verdicts[c][k], refs[op.Prog.key()]
			switch {
			case got.Exit != want.Exit || got.Stdout != want.Stdout:
				res.Err = fmt.Errorf("%s (%s): verdict differs from the offline run (exit %d, want %d)", op.Prog.Name, op.Kind, got.Exit, want.Exit)
			case got.Exit != service.ExitOK || !strings.Contains(got.Stdout, "certificate OK"):
				res.Err = fmt.Errorf("%s (%s): exit %d without a certificate-OK line", op.Prog.Name, op.Kind, got.Exit)
			}
		}
		i += len(ops)
	}
}

// forEachParallel runs fn(0..n-1) on one goroutine per CPU.
func forEachParallel(n int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// analyzeBlock is one cycle of the analyze op mix (two fresh ops, a
// repeat and an edit).
const analyzeBlock = 4

// analyzeTail is the analyze workload's tail latency percentile: a run
// completes thousands of ops, so more than ten lie beyond it.
const analyzeTail = 99

// probeOpsPerClient bounds how many of each client's first ops the
// traced run feeds through the layers directly.
const probeOpsPerClient = 150

func runAnalyze(rc runCtx) (*outcome, error) {
	setups, err := setupTimes(rc.spoolRoot, setupReps)
	if err != nil {
		return nil, err
	}
	plain, err := runAnalyzePhase(rc, nil)
	if err != nil {
		return nil, err
	}
	refs := make(map[string]*analyzeVerdict)
	verifyAnalyze(plain, refs)
	out := newOutcome(analyzeTail)
	out.addLoop(plain.loop)
	if !rc.trace {
		out.endToEnd(append(setups, plain.setupS), plain.loop)
		out.printTenants(plain.tenants)
		return out, nil
	}

	rec := newRecorder()
	traced, err := runAnalyzePhase(rc, rec)
	if err != nil {
		return nil, err
	}
	verifyAnalyze(traced, refs)
	out.addLoop(traced.loop)
	pr := &probe{rec: rec}
	for c, ops := range traced.ops {
		store := summary.NewStore()
		for k, op := range ops[:min(len(ops), probeOpsPerClient)] {
			if op.Kind == opRepeat {
				continue
			}
			if err := pr.analyzeInput(opID(c, k), op.Prog); err != nil {
				out.check(fmt.Errorf("layers %s: %w", op.Prog.Name, err))
			}
			if err := pr.editReuse(opID(c, k), op.Prog, store, op.Kind == opEdit); err != nil {
				out.check(fmt.Errorf("summary %s: %w", op.Prog.Name, err))
			}
		}
	}
	out.perLayer(rec, pr.n, traced.loop, traced.tenants)
	out.set("obs.trace_overhead_pct", "%", overheadPct(opsPerSec(plain.loop), opsPerSec(traced.loop), true))
	out.spans = rec
	return out, nil
}
