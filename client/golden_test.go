package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// replayGoldens serves the api/testdata response goldens byte for byte:
// path → (status, fixture). The draining healthz lives under /draining so
// one server can answer both healthz documents.
func replayGoldens(t *testing.T) *httptest.Server {
	t.Helper()
	routes := map[string]struct {
		status int
		file   string
	}{
		"POST /v1/jobs":                     {http.StatusOK, "job_coalesced.json"},
		"GET /v1/jobs/job-9f3a21c0-3":       {http.StatusOK, "job_done.json"},
		"DELETE /v1/jobs/job-4":             {http.StatusOK, "job_failed.json"},
		"GET /v1/jobs/job-9f3a21c0-3/trace": {http.StatusOK, "job_trace.json"},
		"GET /v1/healthz":                   {http.StatusOK, "healthz_ok.json"},
		"GET /draining/v1/healthz":          {http.StatusServiceUnavailable, "healthz_draining.json"},
		"GET /v1/cluster":                   {http.StatusOK, "cluster.json"},
		"GET /v1/cluster/metrics":           {http.StatusOK, "cluster_metrics.json"},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt, ok := routes[r.Method+" "+r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		raw, err := os.ReadFile(filepath.Join("..", "api", "testdata", rt.file))
		if err != nil {
			t.Error(err)
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rt.status)
		w.Write(raw)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func stampAt(s string) time.Time {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		panic(err)
	}
	return t
}

// TestAPICompatDecode replays every golden response document and requires
// the typed client call that reads it to return the golden's values, so a
// field renamed on either side fails here instead of decoding as zero.
func TestAPICompatDecode(t *testing.T) {
	srv := replayGoldens(t)
	cl, err := New([]string{srv.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	check := func(name string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}

	job, err := cl.Submit(ctx, SubmitRequest{Circuit: "s344"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	check("job_coalesced.json", job, &Job{
		ID: "job-9f3a21c0-3", Node: "http://10.0.0.1:8344",
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Circuit: "s344", Measure: "packed",
		State: "running", Coalesced: true,
		Created: stampAt("2026-03-14T15:09:26.535897932Z"),
		Started: stampAt("2026-03-14T15:09:26.5361Z"),
	})

	job, err = cl.Status(ctx, &Job{ID: "job-9f3a21c0-3", Node: srv.URL})
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	check("job_done.json", job, &Job{
		ID: "job-9f3a21c0-3", Node: "http://10.0.0.1:8344",
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Circuit: "s344", Measure: "packed",
		State:     "done",
		ResultURL: "/v1/jobs/job-9f3a21c0-3/result",
		Created:   stampAt("2026-03-14T15:09:26.535897932Z"),
		Started:   stampAt("2026-03-14T15:09:26.5361Z"),
		Finished:  stampAt("2026-03-14T15:09:26.61Z"),
	})

	// No "node" in the document: the answering endpoint owns the job.
	job, err = cl.Cancel(ctx, &Job{ID: "job-4", Node: srv.URL})
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	check("job_failed.json", job, &Job{
		ID: "job-4", Node: srv.URL, TraceID: "0af7651916cd43dd8448eb211c80319c",
		Circuit: "inline", Measure: "packed", State: "failed",
		Err:      "context deadline exceeded",
		Created:  stampAt("2026-03-14T15:09:26Z"),
		Started:  stampAt("2026-03-14T15:09:26.001Z"),
		Finished: stampAt("2026-03-14T15:09:26.251Z"),
	})

	store := &StoreStatus{Dir: "/var/lib/scanpowerd", Entries: 12, Bytes: 48213,
		Hits: 7, Misses: 12, Puts: 12, Evictions: 1}
	h, err := cl.Health(ctx, srv.URL)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	check("healthz_ok.json", h, &Health{
		Status: "ok", Node: "alpha", UptimeSec: 3600.25, Version: "v1.4.0",
		GoVersion: "go1.22.5", Revision: "0f1e2d3",
		QueueDepth: 1, QueueCapacity: 64, Inflight: 2, Workers: 2, Jobs: 19,
		CacheHits: 5, CacheMisses: 14, Store: store,
	})
	h, err = cl.Health(ctx, srv.URL+"/draining")
	if err != nil {
		t.Fatalf("Health (draining): %v", err)
	}
	check("healthz_draining.json", h, &Health{
		Status: "draining", UptimeSec: 12.5, QueueCapacity: 64, Workers: 1, Jobs: 3,
	})

	cs, err := cl.ClusterStatus(ctx)
	if err != nil {
		t.Fatalf("ClusterStatus: %v", err)
	}
	check("cluster.json", cs, &ClusterStatus{
		Schema: "scanpower/cluster/v1", Self: "http://10.0.0.1:8344",
		Nodes: []ClusterNode{
			{Node: "http://10.0.0.1:8344", Self: true, Healthy: true, QueueDepth: 1, Inflight: 1, Jobs: 7},
			{Node: "http://10.0.0.2:8344", Healthy: true, Draining: true, Jobs: 2},
			{Node: "http://10.0.0.3:8344", Error: "dial tcp 10.0.0.3:8344: connect: connection refused"},
		},
		Store: store,
	})

	cm, err := cl.ClusterMetrics(ctx)
	if err != nil {
		t.Fatalf("ClusterMetrics: %v", err)
	}
	check("cluster_metrics.json", cm, &ClusterMetrics{
		Schema: "scanpower/cluster-metrics/v1", Self: "http://10.0.0.1:8344",
		Summary: MetricsSummary{
			QueueDepth: 1, Inflight: 2,
			Jobs:      map[string]int64{"done": 4, "failed": 1},
			StoreHits: 3, StoreMisses: 2, StoreHitRate: 0.6,
			Latency: map[string]LatencySummary{"submit": {Count: 5, P50: 0.055, P95: 0.9, P99: 0.98}},
		},
		Nodes: []NodeMetrics{
			{Node: "alpha", Self: true, Summary: &MetricsSummary{
				QueueDepth: 1, Inflight: 1,
				Jobs:      map[string]int64{"done": 2},
				StoreHits: 1, StoreMisses: 1, StoreHitRate: 0.5,
			}},
			{Node: "http://10.0.0.3:8344", Error: "context deadline exceeded"},
		},
		Fused: &MetricsSnapshot{
			Counters: map[string]int64{
				"scanpower_service_jobs_submitted_total":       5,
				`scanpower_service_jobs_total{state="done"}`:   4,
				`scanpower_service_jobs_total{state="failed"}`: 1,
				"scanpower_service_store_hits_total":           3,
				"scanpower_service_store_misses_total":         2,
			},
			Gauges: map[string]float64{
				"scanpower_service_inflight":    2,
				"scanpower_service_queue_depth": 1,
			},
			Histograms: map[string]HistogramSnapshot{
				`scanpower_service_request_seconds{endpoint="submit"}`: {
					Bounds: []float64{0.01, 0.1, 1},
					Counts: []int64{1, 3, 1, 0},
					Sum:    0.4375,
					Count:  5,
				},
			},
		},
	})

	tr, err := cl.Trace(ctx, &Job{ID: "job-9f3a21c0-3", Node: srv.URL})
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	start := stampAt("2026-03-14T15:09:26.535897932Z")
	check("job_trace.json", tr, &Trace{
		Schema: "scanpower/trace/v1", TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
		JobID: "job-9f3a21c0-3", Nodes: []string{"alpha", "beta"},
		Spans: []Span{
			{SpanID: "a1b2c3d4e5f60718", Parent: "00f067aa0ba902b7", Name: "ingress", Node: "beta",
				Start: start, DurNS: 41250000,
				Attrs: map[string]any{"circuit": "s344", "outcome": "relayed"}},
			{SpanID: "0718a1b2c3d4e5f6", Parent: "a1b2c3d4e5f60718", Name: "forward", Node: "beta",
				Start: start.Add(120 * time.Microsecond), DurNS: 40800000,
				Attrs: map[string]any{"peer": "http://10.0.0.1:8344", "status": float64(200), "job_id": "job-9f3a21c0-3"}},
			{SpanID: "5e6f708192a3b4c5", Parent: "0718a1b2c3d4e5f6", Name: "job", Node: "alpha",
				Start: start.Add(2 * time.Millisecond), DurNS: 38000000,
				Attrs: map[string]any{"circuit": "s344", "state": "done"}},
		},
	})
}
