package obs

import "encoding/json"

// Service metrics: the document chimerad serves at /metrics.json (and
// flattens into Prometheus text exposition at /metrics). Everything
// here is a counter snapshot — per-tenant cache traffic with hit
// ratios, job counts by state, pool and per-shard occupancy, and the
// latency histogram registry.
// Unlike Report, none of it is pinned byte-stable across runs (a warm
// service is stateful by design), but field order and encoding are
// canonical so diffs within one server lifetime are readable.

// JobCounts is the jobs-by-state section.
type JobCounts struct {
	Queued      int64 `json:"queued"`
	AwaitingLog int64 `json:"awaiting_log"`
	Running     int64 `json:"running"`
	Done        int64 `json:"done"`
	Failed      int64 `json:"failed"`
}

// PoolCounts is the sharded-pool section.
type PoolCounts struct {
	Shards    int   `json:"shards"`
	Pending   int64 `json:"pending"`
	Completed int64 `json:"completed"`
}

// TenantMetrics is one tenant's slice of the service: job volume and its
// whole-program cache outcomes. The ratio is the headline number ("how
// warm is this tenant").
type TenantMetrics struct {
	Tenant        string     `json:"tenant"`
	Jobs          int64      `json:"jobs"`
	Cache         CacheStats `json:"cache"`
	CacheHitRatio float64    `json:"cache_hit_ratio"`
}

// ShardMetrics is one pool shard's occupancy at scrape time.
type ShardMetrics struct {
	Shard      int   `json:"shard"`
	QueueDepth int64 `json:"queue_depth"`
	InFlight   int64 `json:"in_flight"`
}

// ServiceMetrics is the full service metrics document (served as JSON
// at /metrics.json and rendered as Prometheus text at /metrics).
// Tenants are sorted by name for stable output.
//
// Schema is 3 since the tenants lost their summary_store and
// summary_hit_ratio fields (chimerad's tenant caches no longer route
// through a per-function summary store).
type ServiceMetrics struct {
	Schema    int                `json:"schema"`
	Draining  bool               `json:"draining"`
	Jobs      JobCounts          `json:"jobs"`
	Pool      PoolCounts         `json:"pool"`
	Shards    []ShardMetrics     `json:"shards,omitempty"`
	Telemetry *TelemetrySnapshot `json:"telemetry,omitempty"`
	Tenants   []TenantMetrics    `json:"tenants,omitempty"`
}

// Mask zeroes every load- and wall-dependent value in place — histogram
// state, spool counters, shard gauges, pool pending — keeping the
// structural parts (schema, bucket bounds, family names, job/tenant
// counts for a quiesced engine) so two equivalent runs compare
// byte-equal after masking, the service analogue of Report.MaskWall.
func (m *ServiceMetrics) Mask() {
	m.Pool.Pending = 0
	for i := range m.Shards {
		m.Shards[i].QueueDepth = 0
		m.Shards[i].InFlight = 0
	}
	m.Telemetry.Mask()
}

// Marshal renders the metrics as stable, indented JSON with a trailing
// newline (the same canonical shape Report.Marshal uses).
func (m *ServiceMetrics) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Ratio returns hits/total, or 0 when there has been no traffic.
func Ratio(hits, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
