package main

import (
	"fmt"
	"sort"
	"strings"
	"syscall"
)

// metricRec is one reported metric with the sample behind it.
type metricRec struct {
	Name       string  `json:"name"`
	Unit       string  `json:"unit"`
	Value      float64 `json:"value"`
	Dist       *dist   `json:"dist,omitempty"`
	Percentile float64 `json:"percentile,omitempty"` // tail metrics: the percentile reported
	Beyond     int     `json:"beyond,omitempty"`     // tail metrics: samples above it
}

// outcome is everything a workload run measured and checked.
type outcome struct {
	tail              float64 // the workload's tail percentile
	attempted, failed int
	notes             []string // the first failed ops
	checks            []string // failed checks that are not ops
	metrics           []metricRec
	lines             []string // extra report lines
	spans             *recorder
}

func newOutcome(tail float64) *outcome { return &outcome{tail: tail} }

func (o *outcome) note(err error) {
	if len(o.notes) < 10 {
		o.notes = append(o.notes, err.Error())
	}
}

func (o *outcome) check(err error) { o.checks = append(o.checks, err.Error()) }

func (o *outcome) correct() bool { return o.failed == 0 && len(o.checks) == 0 }

// addLoop counts a closed-loop phase's ops; failed ones are never
// dropped.
func (o *outcome) addLoop(l loopResult) {
	for _, op := range l.Ops {
		o.attempted++
		if op.Err != nil {
			o.failed++
			o.note(op.Err)
		}
	}
}

func (o *outcome) put(m metricRec) {
	for i := range o.metrics {
		if o.metrics[i].Name == m.Name {
			o.metrics[i] = m
			return
		}
	}
	o.metrics = append(o.metrics, m)
}

// set records a single measured value.
func (o *outcome) set(name, unit string, v float64) {
	o.put(metricRec{Name: name, Unit: unit, Value: v})
}

// add records the median of a sample.
func (o *outcome) add(name, unit string, xs []float64) {
	d := describe(xs)
	o.put(metricRec{Name: name, Unit: unit, Value: d.Median, Dist: &d})
}

// value returns a recorded metric's value (0 when absent).
func (o *outcome) value(name string) float64 {
	for _, m := range o.metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// addTail records the median and the workload's tail percentile of a
// latency sample; the record notes how many samples lie beyond the tail.
func (o *outcome) addTail(p50, tail string, ms []float64) {
	d := describe(ms)
	o.put(metricRec{Name: p50, Unit: "ms", Value: d.Median, Dist: &d})
	s := sorted(ms)
	v := quantile(s, o.tail/100)
	beyond := 0
	for _, x := range s {
		if x > v {
			beyond++
		}
	}
	o.put(metricRec{Name: tail, Unit: "ms", Value: v, Dist: &d, Percentile: o.tail, Beyond: beyond})
}

func (o *outcome) errorRate() {
	if o.attempted > 0 {
		o.set("error_rate", "fraction", float64(o.failed)/float64(o.attempted))
	}
}

// endToEnd records a service workload's user-visible metrics from the
// measured ops.
func (o *outcome) endToEnd(setups []float64, l loopResult) {
	o.add("setup_s", "s", setups)
	rate := metricRec{Name: "ops_per_s", Unit: "ops/s", Value: opsPerSec(l)}
	if w := windowRates(l, 10); len(w) > 0 {
		d := describe(w)
		rate.Dist = &d
	}
	o.put(rate)
	var lat []float64
	for _, op := range l.Ops {
		if op.Measured && op.Err == nil {
			lat = append(lat, float64(op.LatencyNS)/1e6)
		}
	}
	o.addTail("latency_p50_ms", "latency_p99_ms", lat)
	o.set("peak_rss_mib", "MiB", l.PeakMiB)
	o.errorRate()
}

// opsPerSec is verified ops completed per second: each client's
// verified measured ops over its measured window, summed over clients.
func opsPerSec(l loopResult) float64 {
	per := make([]int, len(l.Windows))
	for _, op := range l.Ops {
		if op.Measured && op.Err == nil {
			per[op.Client]++
		}
	}
	var rate float64
	for c, n := range per {
		if l.Windows[c] > 0 {
			rate += float64(n) / l.Windows[c].Seconds()
		}
	}
	return rate
}

// windowRates splits the longest measured window into n equal slices
// and returns the verified measured ops completed per second in each.
func windowRates(l loopResult, n int) []float64 {
	if l.Elapsed <= 0 {
		return nil
	}
	counts := make([]int, n)
	for _, op := range l.Ops {
		if !op.Measured || op.Err != nil {
			continue
		}
		i := int(float64(op.DoneNS) / float64(l.Elapsed.Nanoseconds()) * float64(n))
		counts[min(max(i, 0), n-1)]++
	}
	w := l.Elapsed.Seconds() / float64(n)
	out := make([]float64, n)
	for i, c := range counts {
		out[i] = float64(c) / w
	}
	return out
}

// overheadPct is how much slower the traced phase was, in percent of
// the untraced one.
func overheadPct(untraced, traced float64, higherIsBetter bool) float64 {
	if untraced == 0 {
		return 0
	}
	if higherIsBetter {
		return (untraced - traced) / untraced * 100
	}
	return (traced - untraced) / untraced * 100
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

func (o *outcome) printTenants(ts []tenantRatio) {
	for _, t := range ts {
		o.lines = append(o.lines, fmt.Sprintf("  core cache hit ratio %-10s %.4f", t.Tenant, t.Ratio))
	}
}

// layerSpans maps the spans of direct layer calls to their metrics.
var layerSpans = []struct{ span, metric string }{
	{"minic.parse", "minic.parse_ms"},
	{"minic.typecheck", "minic.typecheck_ms"},
	{"vm.compile", "vm.compile_ms"},
	{"pointsto", "pointsto.ms"},
	{"callgraph", "callgraph.ms"},
	{"relay", "relay.ms"},
	{"mhp", "mhp.ms"},
	{"escape", "escape.ms"},
	{"instrument", "instrument.ms"},
	{"certify", "certify.ms"},
	{"profile", "profile.ms"},
	{"vm.native", "vm.native_ms"},
	{"vm.record", "vm.record_ms"},
	{"vm.replay", "vm.replay_ms"},
	{"trace.epoch", "trace.epoch_ms"},
	{"trace.vector", "trace.vector_ms"},
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer records the per-layer metrics of a traced phase: self times
// of the direct layer calls, the counts and ratios gathered with them,
// and the service's own view of each job (queue wait and run time).
func (o *outcome) perLayer(rec *recorder, n layerCounts, l loopResult, tenants []tenantRatio) {
	self := selfTimes(rec.all())
	for _, ls := range layerSpans {
		v := 0.0
		if st := self[ls.span]; st != nil {
			v = st.MeanMS()
		}
		o.set(ls.metric, "ms", v)
	}
	o.set("callgraph.sccs", "count", ratio(n.sccs, n.programs))
	o.set("relay.pairs", "count", ratio(n.pairs, n.programs))
	o.set("mhp.pruned_ratio", "ratio", ratio(n.mhpPruned, n.mhpIn))
	o.set("escape.pruned_ratio", "ratio", ratio(n.escPruned, n.escIn))
	var hit float64
	for _, t := range tenants {
		hit += t.Ratio / float64(len(tenants))
	}
	o.set("core.cache_hit_ratio", "ratio", hit)
	o.printTenants(tenants)
	o.set("summary.reuse_ratio", "ratio", ratio(n.editReused, n.editFuncs))
	o.set("instrument.weak_locks", "count", ratio(n.weakLocks, n.instruments))
	o.set("vm.instrs_per_s", "1/s", ratio(n.vmInstrs, n.vmWallNS)*1e9)
	o.set("vm.alloc_mib_per_run", "MiB", ratio(n.vmAllocB, n.vmRuns)/(1<<20))
	o.set("weaklock.ops", "count", ratio(n.wlOps, n.records))
	o.set("weaklock.contention_cycles", "cycles", ratio(n.wlContention, n.records))
	o.set("replay.encode_mib_per_s", "MiB/s", ratio(n.encBytes, n.encNS)*1e9/(1<<20))
	o.set("replay.decode_mib_per_s", "MiB/s", ratio(n.decBytes, n.decNS)*1e9/(1<<20))
	o.set("replay.log_bytes", "B", ratio(n.logBytes, n.records))
	o.set("trace.events", "count", ratio(n.events, n.checks))

	var wait, run, rpc, transfer []float64
	for _, op := range l.Ops {
		if !op.Measured || op.Err != nil {
			continue
		}
		for _, j := range op.Jobs {
			wait = append(wait, float64(j.QueueWaitNS)/1e6)
			run = append(run, float64(j.RunNS)/1e6)
			rpc = append(rpc, float64(j.LatencyNS-j.QueueWaitNS-j.RunNS)/1e6)
		}
		if op.TransferNS > 0 {
			transfer = append(transfer, float64(op.TransferNS)/1e6)
		}
	}
	o.addTail("pool.queue_wait_p50_ms", "pool.queue_wait_p99_ms", wait)
	o.add("service.run_ms", "ms", run)
	o.add("service.rpc_overhead_ms", "ms", rpc)
	o.add("service.log_transfer_ms", "ms", transfer)

	o.lines = append(o.lines, "  per-layer self time (traced run):",
		fmt.Sprintf("    %-22s %8s %12s %12s", "span", "count", "self_ms", "mean_ms"))
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := self[name]
		o.lines = append(o.lines, fmt.Sprintf("    %-22s %8d %12.3f %12.4f", name, st.Count, float64(st.SelfNS)/1e6, st.MeanMS()))
	}
}

// render prints every metric by name with its unit.
func (o *outcome) render(b *strings.Builder) {
	for _, m := range o.metrics {
		fmt.Fprintf(b, "  %-28s %16.6g %-8s", m.Name, m.Value, m.Unit)
		if m.Dist != nil {
			fmt.Fprintf(b, " median %.6g q1 %.6g q3 %.6g n %d", m.Dist.Median, m.Dist.Q1, m.Dist.Q3, m.Dist.N)
		}
		if m.Percentile != 0 {
			fmt.Fprintf(b, " (p%g, %d beyond)", m.Percentile, m.Beyond)
		}
		b.WriteByte('\n')
	}
	for _, l := range o.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
}
