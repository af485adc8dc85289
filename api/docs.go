package api

import "repro/internal/telemetry"

// Benchmark is one structured entry of the GET /v1/benchmarks response.
type Benchmark struct {
	Name string `json:"name"`
	// Gates, ScanCells and Chains are the circuit's published statistics:
	// combinational gate count, scan-chain flip-flops, and scan chains
	// (the Table I experiments use a single chain).
	Gates     int `json:"gates"`
	ScanCells int `json:"scan_cells"`
	Chains    int `json:"chains"`
}

// BenchmarksResponse is the GET /v1/benchmarks body: structured entries,
// plus the historical bare name array under "names".
type BenchmarksResponse struct {
	Benchmarks []Benchmark `json:"benchmarks"`
	Names      []string    `json:"names"`
}

// Envelope is the {"error": {...}} body of every non-2xx response.
type Envelope struct {
	Error EnvelopeBody `json:"error"`
}

// EnvelopeBody carries the machine code and human message of an error.
type EnvelopeBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// JobDoc is the job document of POST /v1/jobs, GET /v1/jobs/{id} and
// DELETE /v1/jobs/{id}. Node is the owning daemon's base URL (when it
// has one): in cluster mode a submit may be forwarded, and polls, cancels
// and result fetches for the job must go to the node named here.
// Timestamps are RFC 3339 with nanoseconds, UTC; unset ones are omitted.
type JobDoc struct {
	ID        string `json:"id"`
	Node      string `json:"node,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	Circuit   string `json:"circuit"`
	Measure   string `json:"measure"`
	State     string `json:"state"`
	Coalesced bool   `json:"coalesced,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Error     string `json:"error,omitempty"`
	Created   string `json:"created,omitempty"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
	ResultURL string `json:"result_url,omitempty"`
}

// StoreStatus is a daemon's persistent result-store block in the healthz
// and cluster documents.
type StoreStatus struct {
	Dir       string `json:"dir,omitempty"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Puts      int64  `json:"puts"`
	Evictions int64  `json:"evictions"`
	Corrupt   int64  `json:"corrupt"`
}

// Health is the GET /v1/healthz document. A draining daemon serves it
// with status "draining" and HTTP 503.
type Health struct {
	Status        string       `json:"status"`
	Node          string       `json:"node,omitempty"`
	UptimeSec     float64      `json:"uptime_sec"`
	Version       string       `json:"version,omitempty"`
	GoVersion     string       `json:"go_version,omitempty"`
	Revision      string       `json:"revision,omitempty"`
	QueueDepth    int          `json:"queue_depth"`
	QueueCapacity int          `json:"queue_capacity"`
	Inflight      int          `json:"inflight"`
	Workers       int          `json:"workers"`
	Jobs          int          `json:"jobs"`
	CacheHits     int64        `json:"cache_hits"`
	CacheMisses   int64        `json:"cache_misses"`
	Store         *StoreStatus `json:"store,omitempty"`
}

// ClusterNode is one member's row in the cluster document.
type ClusterNode struct {
	Node       string `json:"node"`
	Self       bool   `json:"self,omitempty"`
	Healthy    bool   `json:"healthy"`
	Draining   bool   `json:"draining,omitempty"`
	Error      string `json:"error,omitempty"`
	QueueDepth int    `json:"queue_depth,omitempty"`
	Inflight   int    `json:"inflight,omitempty"`
	Jobs       int    `json:"jobs,omitempty"`
}

// ClusterStatus is the GET /v1/cluster document (schema
// scanpower/cluster/v1): the answering node's view of the membership and
// its persistent store.
type ClusterStatus struct {
	Schema string        `json:"schema"`
	Self   string        `json:"self,omitempty"`
	Nodes  []ClusterNode `json:"nodes"`
	Store  *StoreStatus  `json:"store,omitempty"`
}

// HistogramSnapshot is one histogram series of a metrics snapshot: sorted
// finite upper bounds and len(bounds)+1 bucket counts (the last is +Inf).
type HistogramSnapshot = telemetry.HistogramSnapshot

// MetricsSnapshot is one registry's typed export (GET /v1/node/metrics)
// and the fused block of the cluster metrics document.
type MetricsSnapshot = telemetry.RegistrySnapshot

// LatencySummary is the percentile view of one endpoint's request-latency
// histogram.
type LatencySummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_sec"`
	P95   float64 `json:"p95_sec"`
	P99   float64 `json:"p99_sec"`
}

// MetricsSummary is the operator digest of one registry snapshot:
// occupancy, job outcomes, store efficiency and request latency. The
// server computes it per node and for the fusion with the same code.
type MetricsSummary struct {
	QueueDepth   float64                   `json:"queue_depth"`
	Inflight     float64                   `json:"inflight"`
	Jobs         map[string]int64          `json:"jobs_by_state,omitempty"`
	StoreHits    int64                     `json:"store_hits"`
	StoreMisses  int64                     `json:"store_misses"`
	StoreHitRate float64                   `json:"store_hit_rate"`
	Latency      map[string]LatencySummary `json:"latency,omitempty"`
}

// NodeMetrics is one member's row in the cluster metrics document.
type NodeMetrics struct {
	Node    string          `json:"node"`
	Self    bool            `json:"self,omitempty"`
	Error   string          `json:"error,omitempty"`
	Summary *MetricsSummary `json:"summary,omitempty"`
}

// ClusterMetrics is the GET /v1/cluster/metrics document (schema
// scanpower/cluster-metrics/v1): the fused registry snapshot (counters
// and gauges summed per series, histogram buckets bit-exact sums), a
// summary of the fusion, and the per-node breakdown.
type ClusterMetrics struct {
	Schema  string           `json:"schema"`
	Self    string           `json:"self,omitempty"`
	Summary MetricsSummary   `json:"summary"`
	Nodes   []NodeMetrics    `json:"nodes"`
	Fused   *MetricsSnapshot `json:"fused"`
}

// Span is one finished span of a distributed trace.
type Span = telemetry.SpanRecord

// Trace is the GET /v1/jobs/{id}/trace document (schema
// scanpower/trace/v1): the merged cross-node span tree of one job's
// trace, spans sorted by start time.
type Trace struct {
	Schema  string   `json:"schema"`
	TraceID string   `json:"trace_id"`
	JobID   string   `json:"job_id"`
	Nodes   []string `json:"nodes"`
	Spans   []Span   `json:"spans"`
}

// TraceSegments is the GET /v1/traces/{id} document: one node's raw
// retained segments of a trace, the unit a peer pulls while merging.
type TraceSegments struct {
	TraceID  string               `json:"trace_id"`
	Node     string               `json:"node,omitempty"`
	Segments []telemetry.JobTrace `json:"segments"`
}
