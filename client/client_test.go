package client

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/netlist"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// deadEndpoint returns a URL whose port refuses connections.
func deadEndpoint(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + l.Addr().String()
	l.Close()
	return url
}

// blockingRunner parks every job until release closes.
func blockingRunner(release chan struct{}) service.Runner {
	return func(ctx context.Context, c *netlist.Circuit, cfg scanpower.Config) (*scanpower.Comparison, error) {
		select {
		case <-release:
			return &scanpower.Comparison{Circuit: c.Name}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

const s27Bench = `# s27
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)

G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)

G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`

// newService boots a real scanpowerd service under httptest.
func newService(t *testing.T, opts service.Options) *httptest.Server {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	if opts.QueueSize == 0 {
		opts.QueueSize = 8
	}
	svc := service.New(opts)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv
}

// TestSubmitWaitResult drives the happy path through the typed client
// against a real service.
func TestSubmitWaitResult(t *testing.T) {
	srv := newService(t, service.Options{})
	cl, err := New([]string{srv.URL}, Options{PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	job, err := cl.Submit(ctx, SubmitRequest{Bench: s27Bench, Name: "s27"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.ID == "" || job.Node != srv.URL {
		t.Fatalf("job = %+v", job)
	}
	job, err = cl.Wait(ctx, job)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if job.State != "done" {
		t.Fatalf("job settled %s (%s)", job.State, job.Err)
	}
	cmp, raw, err := cl.Result(ctx, job)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if cmp.Circuit != "s27" || cmp.Patterns == 0 {
		t.Errorf("comparison = %+v", cmp)
	}
	var redecoded map[string]any
	if err := json.Unmarshal(raw, &redecoded); err != nil {
		t.Errorf("raw result bytes are not JSON: %v", err)
	}
	if redecoded["schema"] != "scanpower/comparison/v1" {
		t.Errorf("raw result schema = %v", redecoded["schema"])
	}

	// Wait-mode submit settles in one round trip.
	job2, err := cl.Submit(ctx, SubmitRequest{Bench: s27Bench, Name: "s27", Wait: true})
	if err != nil {
		t.Fatalf("wait submit: %v", err)
	}
	if job2.State != "done" || !job2.Coalesced || job2.ID != job.ID {
		t.Errorf("wait submit = %+v, want coalesced done %s", job2, job.ID)
	}

	entries, err := cl.Benchmarks(ctx)
	if err != nil || len(entries) != 12 {
		t.Errorf("Benchmarks = %v (%v)", entries, err)
	}
	for _, e := range entries {
		if e.Name == "" || e.Gates <= 0 || e.ScanCells <= 0 || e.Chains != 1 {
			t.Errorf("benchmark entry missing stats: %+v", e)
		}
	}
	names, err := cl.BenchmarkNames(ctx)
	if err != nil || len(names) != 12 || names[0] != "s1196" {
		t.Errorf("BenchmarkNames = %v (%v)", names, err)
	}
	h, err := cl.Health(ctx, srv.URL)
	if err != nil || h.Status != "ok" {
		t.Errorf("Health = %+v (%v)", h, err)
	}
	cs, err := cl.ClusterStatus(ctx)
	if err != nil || len(cs.Nodes) != 1 || !cs.Nodes[0].Self {
		t.Errorf("ClusterStatus = %+v (%v)", cs, err)
	}
}

// TestTypedErrors checks the envelope-to-sentinel mapping.
func TestTypedErrors(t *testing.T) {
	srv := newService(t, service.Options{})
	cl, err := New([]string{srv.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := cl.Submit(ctx, SubmitRequest{Circuit: "s9999"}); !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("unknown benchmark error = %v", err)
	}
	if _, err := cl.Submit(ctx, SubmitRequest{Bench: "INPUT(a)\nnot an assignment\n"}); !errors.Is(err, ErrBadBench) {
		t.Errorf("bad bench error = %v", err)
	}
	if _, err := cl.Submit(ctx, SubmitRequest{}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("empty submit error = %v", err)
	}
	if _, err := cl.Status(ctx, &Job{ID: "job-999", Node: srv.URL}); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job error = %v", err)
	}

	var apiErr *APIError
	_, err = cl.Submit(ctx, SubmitRequest{Circuit: "s9999"})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != "unknown_benchmark" {
		t.Errorf("APIError = %+v", apiErr)
	}
}

// TestQueueFullRetryAfter checks the backpressure contract surfaces
// typed: ErrQueueFull with the parsed Retry-After.
func TestQueueFullRetryAfter(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"code":"queue_full","message":"service: job queue is full"}}`))
	}))
	defer stub.Close()
	cl, _ := New([]string{stub.URL}, Options{})
	_, err := cl.Submit(context.Background(), SubmitRequest{Circuit: "s344"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("error = %v, want ErrQueueFull", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.RetryAfter != 2*time.Second {
		t.Errorf("RetryAfter = %+v", apiErr)
	}
}

// TestEndpointFailover: a dead first endpoint and a draining second are
// skipped; the third serves the submit.
func TestEndpointFailover(t *testing.T) {
	deadURL := deadEndpoint(t)

	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"draining","message":"service: draining"}}`))
	}))
	defer draining.Close()

	live := newService(t, service.Options{})

	cl, err2 := New([]string{deadURL, draining.URL, live.URL}, Options{PollInterval: 5 * time.Millisecond})
	if err2 != nil {
		t.Fatal(err2)
	}
	// Exercise every rotation offset so each endpoint leads once.
	for i := 0; i < 3; i++ {
		job, err := cl.Submit(context.Background(), SubmitRequest{Bench: s27Bench, Name: "s27", Wait: true})
		if err != nil {
			t.Fatalf("Submit #%d: %v", i, err)
		}
		if job.State != "done" || job.Node != live.URL {
			t.Fatalf("Submit #%d landed %+v", i, job)
		}
	}
}

// TestNoEndpoints: all endpoints down maps to ErrNoEndpoints.
func TestNoEndpoints(t *testing.T) {
	cl, _ := New([]string{deadEndpoint(t)}, Options{})
	if _, err := cl.Submit(context.Background(), SubmitRequest{Circuit: "s344"}); !errors.Is(err, ErrNoEndpoints) {
		t.Errorf("error = %v, want ErrNoEndpoints", err)
	}
	if _, err := New(nil, Options{}); err == nil {
		t.Error("New accepted an empty endpoint list")
	}
}

// TestJobAffinity: a submit answered with a node URL directs follow-ups
// at that node, not the endpoint that answered.
func TestJobAffinity(t *testing.T) {
	ownerHits := 0
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ownerHits++
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"job-7","node":"OWNER","circuit":"s344","measure":"packed","state":"done","result_url":"/v1/jobs/job-7/result"}`))
	}))
	defer owner.Close()

	entry := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"job-7","node":"` + owner.URL + `","circuit":"s344","measure":"packed","state":"done","result_url":"/v1/jobs/job-7/result"}`))
	}))
	defer entry.Close()

	cl, _ := New([]string{entry.URL}, Options{})
	job, err := cl.Submit(context.Background(), SubmitRequest{Circuit: "s344"})
	if err != nil {
		t.Fatal(err)
	}
	if job.Node != owner.URL {
		t.Fatalf("job node = %q, want owner %q", job.Node, owner.URL)
	}
	if _, err := cl.Status(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if ownerHits != 1 {
		t.Errorf("owner served %d follow-ups, want 1", ownerHits)
	}
}

// TestCancel cancels a queued job through the client.
func TestCancel(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv := newService(t, service.Options{
		Workers: 1, QueueSize: 2,
		Runner: blockingRunner(block),
	})
	cl, _ := New([]string{srv.URL}, Options{PollInterval: 5 * time.Millisecond})
	ctx := context.Background()

	// Park the worker, then cancel a queued second job.
	if _, err := cl.Submit(ctx, SubmitRequest{Circuit: "s344"}); err != nil {
		t.Fatal(err)
	}
	job, err := cl.Submit(ctx, SubmitRequest{Circuit: "s382"})
	if err != nil {
		t.Fatal(err)
	}
	job, err = cl.Cancel(ctx, job)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if job.State != "canceled" {
		t.Fatalf("canceled job state = %s", job.State)
	}
	if _, _, err := cl.Result(ctx, job); !errors.Is(err, ErrCanceled) {
		t.Errorf("result of canceled job = %v, want ErrCanceled", err)
	}
}

// TestTraceAndMetrics drives the observability surface through the
// typed client: trace-context submission, trace retrieval, health
// identity and the fused metrics snapshot.
func TestTraceAndMetrics(t *testing.T) {
	srv := newService(t, service.Options{Node: "alpha"})
	cl, err := New([]string{srv.URL}, Options{PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID(), SpanID: telemetry.NewSpanID()}
	job, err := cl.Submit(ctx, SubmitRequest{
		Bench: s27Bench, Name: "s27", Wait: true, TraceParent: tc.Traceparent(),
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.TraceID != tc.TraceID {
		t.Errorf("job TraceID = %q, want adopted %q", job.TraceID, tc.TraceID)
	}

	tr, err := cl.Trace(ctx, job)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if tr.TraceID != tc.TraceID || tr.JobID != job.ID {
		t.Errorf("trace identity = %s/%s, want %s/%s", tr.TraceID, tr.JobID, tc.TraceID, job.ID)
	}
	if len(tr.Nodes) != 1 || tr.Nodes[0] != "alpha" {
		t.Errorf("trace nodes = %v", tr.Nodes)
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
		if sp.Node != "alpha" {
			t.Errorf("span %s node = %q", sp.Name, sp.Node)
		}
	}
	for _, want := range []string{"job", "queue", "run"} {
		if !names[want] {
			t.Errorf("trace missing span %q: %v", want, names)
		}
	}

	h, err := cl.Health(ctx, srv.URL)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Node != "alpha" || h.GoVersion == "" || h.UptimeSec < 0 {
		t.Errorf("health identity = %+v", h)
	}

	cm, err := cl.ClusterMetrics(ctx)
	if err != nil {
		t.Fatalf("ClusterMetrics: %v", err)
	}
	if cm.Schema != service.ClusterMetricsSchemaV1 {
		t.Errorf("cluster metrics schema = %q", cm.Schema)
	}
	if len(cm.Nodes) != 1 || !cm.Nodes[0].Self || cm.Nodes[0].Node != "alpha" {
		t.Errorf("cluster metrics nodes = %+v", cm.Nodes)
	}
	if cm.Fused == nil || cm.Fused.Counters[service.MetricJobsSubmitted] != 1 {
		t.Errorf("fused submitted = %v", cm.Fused)
	}
	if cm.Summary.Jobs["done"] != 1 {
		t.Errorf("summary jobs = %v", cm.Summary.Jobs)
	}

	ms, err := cl.NodeMetricsSnapshot(ctx, srv.URL)
	if err != nil {
		t.Fatalf("NodeMetricsSnapshot: %v", err)
	}
	if ms.Counters[service.MetricJobsSubmitted] != cm.Fused.Counters[service.MetricJobsSubmitted] {
		t.Errorf("single-node fusion differs from the node snapshot")
	}
}

// TestHealthDrainingOneRequest: a draining node's 503 healthz document is
// decoded from the one response that carried it, not re-fetched.
func TestHealthDrainingOneRequest(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"status": "draining", "queue_capacity": 4}`))
	}))
	defer srv.Close()
	cl, err := New([]string{srv.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.Health(context.Background(), srv.URL)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "draining" || h.QueueCapacity != 4 {
		t.Errorf("health = %+v", h)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("Health sent %d requests, want 1", n)
	}
}
