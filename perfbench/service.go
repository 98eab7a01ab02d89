package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// liveService is an in-process chimerad: an engine at the daemon's
// default settings behind its HTTP API on a loopback listener, with a
// private spool directory.
type liveService struct {
	eng    *service.Engine
	srv    *http.Server
	served chan error
	spool  string
	base   string
}

// startService boots a service and waits until /healthz answers; the
// returned duration is that set-up time.
func startService(spoolRoot string) (*liveService, time.Duration, error) {
	t0 := time.Now()
	spool, err := os.MkdirTemp(spoolRoot, "spool-")
	if err != nil {
		return nil, 0, fmt.Errorf("spool dir: %w", err)
	}
	// chimerad's flag defaults: one shard per CPU, depth 256, a 2m job
	// timeout, a 64-entry trace ring, and info-level structured logs
	// (formatted as the daemon would, then discarded).
	eng := service.NewEngine(service.EngineConfig{
		Shards:     runtime.NumCPU(),
		Depth:      256,
		SpoolDir:   spool,
		JobTimeout: 2 * time.Minute,
		Logger:     obs.NewLogger(io.Discard, obs.LevelInfo),
		TraceRing:  64,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(spool)
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	s := &liveService{
		eng:    eng,
		srv:    &http.Server{Handler: service.NewServer(eng)},
		served: make(chan error, 1),
		spool:  spool,
		base:   "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	if err := s.awaitHealthy(); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// probeClient is the health probe's HTTP client. It opens a fresh
// connection per probe and closes it with a reset, not a FIN, so the
// hundreds of boots that time set-up leave no TIME_WAIT sockets behind.
// Thousands of those slow every later bind and connect on loopback for a
// minute, which made one run's set-up time depend on the runs before it.
var probeClient = &http.Client{Transport: &http.Transport{
	DisableKeepAlives: true,
	DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if tc, ok := c.(*net.TCPConn); ok {
			err = tc.SetLinger(0)
		}
		return c, err
	},
}}

func (s *liveService) awaitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := probeClient.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service not healthy after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener down, drains the engine, and removes the
// spool directory.
func (s *liveService) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if !s.eng.Drain(3 * time.Minute) {
		err = errors.Join(err, errors.New("engine did not drain"))
	}
	return errors.Join(err, os.RemoveAll(s.spool))
}

// setupTimes boots and stops a service n times and returns each set-up
// time in seconds.
func setupTimes(spoolRoot string, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		s, d, err := startService(spoolRoot)
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// jobSample is what the benchmark keeps of one finished job.
type jobSample struct {
	LatencyNS   int64
	QueueWaitNS int64
	RunNS       int64
}

// opResult is one closed-loop op's outcome.
type opResult struct {
	LatencyNS  int64
	Jobs       []jobSample
	DoneNS     int64 // completion, since the phase started
	TransferNS int64 // log download + upload, wire replays only
	Client     int   // the client that issued it
	Measured   bool  // inside its client's measured window
	Err        error // refused, failed, timed out, or a wrong verdict
}

// loopResult is a whole closed-loop phase.
type loopResult struct {
	Elapsed time.Duration   // the longest measured window
	Windows []time.Duration // each client's measured window
	Ops     []opResult      // every op, measured or not, client by client
	PeakMiB float64         // process peak RSS at the end of the phase
}

// closedLoop runs one client per goroutine: each client issues its next
// op only after the previous one finished. A client measures its ops in
// whole blocks of the workload's op mix, so every measured window holds
// the same mix: the window closes at the first block boundary after dur.
// A client whose window has closed keeps issuing ops, verified but not
// measured, until every window has closed, so every measured op ran
// under the same load.
func closedLoop(clients, block int, dur time.Duration, op func(client, k int) opResult) loopResult {
	runtime.GC() // start every phase from a collected heap
	t0 := time.Now()
	deadline := t0.Add(dur)
	perClient := make([][]opResult, clients)
	windows := make([]time.Duration, clients)
	var measuring atomic.Int32
	measuring.Store(int32(clients))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			inWindow := true
			for k := 0; ; k++ {
				if inWindow && k > 0 && k%block == 0 && time.Now().After(deadline) {
					inWindow = false
					windows[c] = time.Duration(perClient[c][k-1].DoneNS)
					measuring.Add(-1)
				}
				if !inWindow && measuring.Load() == 0 {
					return
				}
				r := op(c, k)
				r.DoneNS = time.Since(t0).Nanoseconds()
				r.Client, r.Measured = c, inWindow
				perClient[c] = append(perClient[c], r)
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{Windows: windows, PeakMiB: peakRSSMiB()}
	for c, ops := range perClient {
		res.Elapsed = max(res.Elapsed, windows[c])
		res.Ops = append(res.Ops, ops...)
	}
	return res
}

// opID numbers op k of a client uniquely within a run.
func opID(client, k int) int64 { return int64(client)<<32 | int64(k) + 1 }

// tenantOf maps clients onto the two tenants.
func tenantOf(client int) string { return fmt.Sprintf("tenant-%d", client%2) }

// submitAndWait submits a job and waits for its terminal view, inside
// "submit" and "wait" spans under parent.
func submitAndWait(c *service.Client, rec *recorder, op int64, parent *open, spec *service.JobSpec) (*service.JobView, jobSample, error) {
	t0 := time.Now()
	var v *service.JobView
	var err error
	rec.timed("service.submit", op, parent, func() { v, err = c.Submit(spec) })
	if err != nil {
		return nil, jobSample{}, fmt.Errorf("submit %s: %w", spec.Kind, err)
	}
	return waitJob(c, rec, op, parent, v.ID, t0)
}

func waitJob(c *service.Client, rec *recorder, op int64, parent *open, id string, t0 time.Time) (*service.JobView, jobSample, error) {
	var v *service.JobView
	var err error
	rec.timed("service.wait", op, parent, func() { v, err = c.Wait(id) })
	if err != nil {
		return nil, jobSample{}, fmt.Errorf("wait %s: %w", id, err)
	}
	js := jobSample{LatencyNS: time.Since(t0).Nanoseconds(), QueueWaitNS: v.QueueWaitNS, RunNS: v.RunNS}
	if v.State != service.StateDone || v.Result == nil {
		return v, js, fmt.Errorf("job %s %s: %s", v.ID, v.State, v.Error)
	}
	return v, js, nil
}

// tenantRatio is one tenant's whole-program cache hit ratio.
type tenantRatio struct {
	Tenant string
	Ratio  float64
}

// wholeProgramHits reads each tenant's whole-program cache hits as a
// share of its loads from /metrics.json. The endpoint's cache_hit_ratio
// also counts partial hits (fresh loads that reused any stored function
// summary), which nearly every load is once the shared mini-libc is
// stored; summary reuse is reported separately.
func wholeProgramHits(m *obs.ServiceMetrics) []tenantRatio {
	var out []tenantRatio
	for _, t := range m.Tenants {
		c := t.Cache
		out = append(out, tenantRatio{t.Tenant, ratio(c.Hits, c.Hits+c.PartialHits+c.Misses)})
	}
	return out
}
