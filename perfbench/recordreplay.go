package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// recordReplayRun is one closed-loop phase of the record-replay workload.
type recordReplayRun struct {
	loop    loopResult
	setupS  float64
	ops     [][]recordOp
	tenants []tenantRatio
}

func runRecordReplayPhase(rc runCtx, rec *recorder) (*recordReplayRun, error) {
	svc, setup, err := startService(rc.spoolRoot)
	if err != nil {
		return nil, err
	}
	client := service.NewClient(svc.base)
	run := &recordReplayRun{setupS: setup.Seconds(), ops: make([][]recordOp, rc.clients)}
	plans := make([]*recordPlan, rc.clients)
	for c := range plans {
		plans[c] = newRecordPlan(rc.seed, c)
	}
	run.loop = closedLoop(rc.clients, recordReplayBlock, rc.dur, func(c, k int) opResult {
		op := plans[c].next()
		run.ops[c] = append(run.ops[c], op)
		return recordReplayOp(client, rec, opID(c, k), tenantOf(c), op)
	})
	m, err := client.Metrics()
	if err := errors.Join(err, svc.stop()); err != nil {
		return nil, err
	}
	run.tenants = wholeProgramHits(m)
	return run, nil
}

// recordReplayOp records one execution and verifies its replay, from
// the server's spool or, for wire ops, from a log taken over the wire.
// The op succeeds only if the replay reproduces the recording's output
// hash.
func recordReplayOp(client *service.Client, rec *recorder, id int64, tenant string, op recordOp) opResult {
	root := rec.start("op.record-replay", id, nil)
	defer root.end()
	t0 := time.Now()
	res := opResult{}
	done := func(err error) opResult {
		res.LatencyNS = time.Since(t0).Nanoseconds()
		res.Err = err
		return res
	}
	name := strings.TrimSuffix(op.Prog.Name, ".mc")
	rv, js, err := submitAndWait(client, rec, id, root, &service.JobSpec{
		Kind: service.JobRecord, Tenant: tenant,
		Name: name, Source: op.Prog.Source, Config: "all", Seed: op.RecordSeed,
	})
	if err != nil {
		return done(err)
	}
	res.Jobs = append(res.Jobs, js)
	if rv.Result.ExitCode != service.ExitOK || rv.Result.OutputHash == "" {
		return done(fmt.Errorf("record %s seed %d: exit %d: %s", name, op.RecordSeed, rv.Result.ExitCode, rv.Result.Stderr))
	}

	var vv *service.JobView
	if !op.Wire {
		vv, js, err = submitAndWait(client, rec, id, root, &service.JobSpec{
			Kind: service.JobReplayVerify, Tenant: tenant, LogJob: rv.ID,
		})
	} else {
		r0 := time.Now()
		var log bytes.Buffer
		rec.timed("service.log_download", id, root, func() { _, err = client.DownloadLog(rv.ID, &log) })
		if err != nil {
			return done(err)
		}
		transfer := time.Since(r0)
		var up *service.JobView
		rec.timed("service.submit", id, root, func() {
			up, err = client.Submit(&service.JobSpec{
				Kind: service.JobReplayVerify, Tenant: tenant, LogUpload: true,
				Name: name, Source: op.Prog.Source, Config: "all",
			})
		})
		if err != nil {
			return done(fmt.Errorf("submit replay-verify: %w", err))
		}
		u0 := time.Now()
		rec.timed("service.log_upload", id, root, func() { _, err = client.UploadLog(up.ID, bytes.NewReader(log.Bytes())) })
		if err != nil {
			return done(err)
		}
		res.TransferNS = (transfer + time.Since(u0)).Nanoseconds()
		vv, js, err = waitJob(client, rec, id, root, up.ID, r0.Add(transfer))
	}
	if err != nil {
		return done(err)
	}
	res.Jobs = append(res.Jobs, js)
	want := fmt.Sprintf("replay matches (output hash %s)", rv.Result.OutputHash)
	if m := vv.Result.ReplayMatches; m == nil || !*m || !strings.Contains(vv.Result.Stdout, want) {
		return done(fmt.Errorf("replay-verify %s seed %d (wire=%v): %s%s", name, op.RecordSeed, op.Wire, vv.Result.Stdout, vv.Result.Stderr))
	}
	return done(nil)
}

func runRecordReplay(rc runCtx) (*outcome, error) {
	setups, err := setupTimes(rc.spoolRoot, setupReps)
	if err != nil {
		return nil, err
	}
	plain, err := runRecordReplayPhase(rc, nil)
	if err != nil {
		return nil, err
	}
	out := newOutcome(recordReplayTail)
	out.addLoop(plain.loop)
	if !rc.trace {
		out.endToEnd(append(setups, plain.setupS), plain.loop)
		out.printTenants(plain.tenants)
		return out, nil
	}

	rec := newRecorder()
	traced, err := runRecordReplayPhase(rc, rec)
	if err != nil {
		return nil, err
	}
	out.addLoop(traced.loop)
	pr := &probe{rec: rec}
	for c, ops := range traced.ops {
		analyzed := make(map[string]*core.Program)
		for k, op := range ops[:min(len(ops), recordProbeOps)] {
			if err := pr.recordInput(opID(c, k), op, analyzed); err != nil {
				out.check(fmt.Errorf("layers %s seed %d: %w", op.Prog.Name, op.RecordSeed, err))
			}
		}
	}
	out.perLayer(rec, pr.n, traced.loop, traced.tenants)
	out.set("obs.trace_overhead_pct", "%", overheadPct(opsPerSec(plain.loop), opsPerSec(traced.loop), true))
	out.spans = rec
	return out, nil
}

// recordReplayBlock is one cycle of the record-replay op mix: every
// family × size combination once.
const recordReplayBlock = 15

// recordReplayTail is the record-replay workload's tail latency
// percentile: a run completes only about a hundred ops, so the 99th
// percentile would rest on a single sample.
const recordReplayTail = 90

// recordProbeOps bounds how many of each client's first record-replay
// ops the traced run feeds through the layers directly.
const recordProbeOps = 40
