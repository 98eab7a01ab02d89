package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of a ServiceMetrics
// snapshot. The output is fully ordered — families in fixed order,
// series sorted by label value — so consecutive scrapes of a quiesced
// server are byte-identical and tests can diff them.
//
// Durations are exported in seconds (the Prometheus convention); the
// underlying histograms count nanoseconds, so bucket bounds convert as
// le = bound_ns / 1e9.

// Prometheus renders the snapshot as Prometheus text exposition.
func (m *ServiceMetrics) Prometheus() []byte {
	var b strings.Builder
	writeGauge(&b, "chimerad_draining", "Whether the server is draining (1) or accepting jobs (0).", boolVal(m.Draining))

	b.WriteString("# HELP chimerad_jobs Jobs by lifecycle state.\n# TYPE chimerad_jobs gauge\n")
	for _, st := range []struct {
		name string
		v    int64
	}{
		{"awaiting-log", m.Jobs.AwaitingLog},
		{"done", m.Jobs.Done},
		{"failed", m.Jobs.Failed},
		{"queued", m.Jobs.Queued},
		{"running", m.Jobs.Running},
	} {
		fmt.Fprintf(&b, "chimerad_jobs{state=%q} %d\n", st.name, st.v)
	}

	writeGauge(&b, "chimerad_pool_shards", "Number of worker shards.", float64(m.Pool.Shards))
	writeGauge(&b, "chimerad_pool_pending", "Tasks queued or executing across all shards.", float64(m.Pool.Pending))
	writeCounter(&b, "chimerad_pool_completed_total", "Tasks completed since start.", float64(m.Pool.Completed))

	if len(m.Shards) > 0 {
		b.WriteString("# HELP chimerad_shard_queue_depth Tasks waiting in a shard's queue.\n# TYPE chimerad_shard_queue_depth gauge\n")
		for _, s := range m.Shards {
			fmt.Fprintf(&b, "chimerad_shard_queue_depth{shard=\"%d\"} %d\n", s.Shard, s.QueueDepth)
		}
		b.WriteString("# HELP chimerad_shard_inflight Tasks executing on a shard.\n# TYPE chimerad_shard_inflight gauge\n")
		for _, s := range m.Shards {
			fmt.Fprintf(&b, "chimerad_shard_inflight{shard=\"%d\"} %d\n", s.Shard, s.InFlight)
		}
	}

	if t := m.Telemetry; t != nil {
		writeHistograms(&b, "chimerad_job_duration_seconds", "Job execution time (excluding queue wait) by job kind.", "kind", t.Jobs)
		writeHistograms(&b, "chimerad_stage_duration_seconds", "Per-request span durations by stage name.", "stage", t.Stages)
		b.WriteString("# HELP chimerad_spool_bytes_total Bytes moved through the CHIMLOG2 spool directory.\n# TYPE chimerad_spool_bytes_total counter\n")
		fmt.Fprintf(&b, "chimerad_spool_bytes_total{direction=\"in\"} %d\n", t.SpoolInBytes)
		fmt.Fprintf(&b, "chimerad_spool_bytes_total{direction=\"out\"} %d\n", t.SpoolOutBytes)
	}

	if len(m.Tenants) > 0 {
		b.WriteString("# HELP chimerad_tenant_jobs_total Jobs submitted by tenant.\n# TYPE chimerad_tenant_jobs_total counter\n")
		for _, tn := range m.Tenants {
			fmt.Fprintf(&b, "chimerad_tenant_jobs_total{tenant=%q} %d\n", tn.Tenant, tn.Jobs)
		}
		b.WriteString("# HELP chimerad_tenant_cache_hit_ratio Whole-program analysis cache hit ratio by tenant.\n# TYPE chimerad_tenant_cache_hit_ratio gauge\n")
		for _, tn := range m.Tenants {
			fmt.Fprintf(&b, "chimerad_tenant_cache_hit_ratio{tenant=%q} %s\n", tn.Tenant, formatFloat(tn.CacheHitRatio))
		}
	}
	return []byte(b.String())
}

func writeHistograms(b *strings.Builder, family, help, label string, hs []NamedHistogram) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", family, help, family)
	for _, nh := range hs {
		s := nh.Histogram
		var cum int64
		for i, bound := range s.BoundsNS {
			cum += s.Counts[i]
			fmt.Fprintf(b, "%s_bucket{%s=%q,le=%q} %d\n", family, label, nh.Name, formatFloat(float64(bound)/1e9), cum)
		}
		if len(s.Counts) > 0 {
			cum += s.Counts[len(s.Counts)-1]
		}
		fmt.Fprintf(b, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", family, label, nh.Name, cum)
		fmt.Fprintf(b, "%s_sum{%s=%q} %s\n", family, label, nh.Name, formatFloat(float64(s.SumNS)/1e9))
		fmt.Fprintf(b, "%s_count{%s=%q} %d\n", family, label, nh.Name, s.Count)
	}
}

func writeGauge(b *strings.Builder, name, help string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(v))
}

func writeCounter(b *strings.Builder, name, help string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, formatFloat(v))
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func boolVal(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
