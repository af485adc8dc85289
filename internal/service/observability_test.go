package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// traceDoc fetches and decodes GET /v1/jobs/{id}/trace.
func traceDoc(t *testing.T, base, id string) (int, map[string]any) {
	t.Helper()
	code, _, body := fetchJSON(t, base+"/v1/jobs/"+id+"/trace")
	return code, body
}

// spanNames extracts the span names from a trace document body.
func spanNames(body map[string]any) map[string]int {
	out := map[string]int{}
	spans, _ := body["spans"].([]any)
	for _, sp := range spans {
		m, _ := sp.(map[string]any)
		name, _ := m["name"].(string)
		out[name]++
	}
	return out
}

// TestLocalJobTrace: a single-node job's trace is one balanced tree —
// job with queue and run children, all tagged with this node's name —
// and the job response carries the trace ID.
func TestLocalJobTrace(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, QueueSize: 4, Node: "alpha"})
	code, _, body := postJob(t, srv.URL, map[string]any{
		"bench": s27Bench, "name": "trace-local", "wait": true,
	})
	if code != http.StatusOK || body["state"] != "done" {
		t.Fatalf("submit: status %d (%v)", code, body)
	}
	traceID, _ := body["trace_id"].(string)
	if len(traceID) != 32 {
		t.Fatalf("job trace_id = %q, want 32 hex chars", traceID)
	}

	tcode, tbody := traceDoc(t, srv.URL, body["id"].(string))
	if tcode != http.StatusOK || tbody["schema"] != TraceSchemaV1 {
		t.Fatalf("trace: status %d (%v)", tcode, tbody)
	}
	if tbody["trace_id"] != traceID {
		t.Errorf("trace doc trace_id = %v, want %v", tbody["trace_id"], traceID)
	}
	names := spanNames(tbody)
	for _, want := range []string{"job", "queue", "run"} {
		if names[want] != 1 {
			t.Errorf("span %q count = %d, want 1 (spans: %v)", want, names[want], names)
		}
	}
	nodes, _ := tbody["nodes"].([]any)
	if len(nodes) != 1 || nodes[0] != "alpha" {
		t.Errorf("trace nodes = %v, want [alpha]", nodes)
	}

	// Unknown jobs 404.
	if code, _ := traceDoc(t, srv.URL, "job-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job trace: status %d, want 404", code)
	}
}

// TestClientTraceHeaderAdopted: a submit carrying a valid trace header
// joins that trace instead of minting one; a malformed header falls back
// to a fresh trace.
func TestClientTraceHeaderAdopted(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, QueueSize: 4})
	tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID(), SpanID: telemetry.NewSpanID()}

	post := func(header, name string) map[string]any {
		t.Helper()
		b, _ := json.Marshal(map[string]any{"bench": s27Bench, "name": name, "wait": true})
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if header != "" {
			req.Header.Set(TraceHeader, header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	body := post(tc.Traceparent(), "trace-adopt")
	if body["trace_id"] != tc.TraceID {
		t.Errorf("job trace_id = %v, want adopted %v", body["trace_id"], tc.TraceID)
	}
	// The root span parents to the client's span.
	_, tbody := traceDoc(t, srv.URL, body["id"].(string))
	for _, sp := range tbody["spans"].([]any) {
		m := sp.(map[string]any)
		if m["name"] == "job" && m["parent_id"] != tc.SpanID {
			t.Errorf("job span parent = %v, want %v", m["parent_id"], tc.SpanID)
		}
	}

	body = post("not-a-traceparent", "trace-garbage")
	id, _ := body["trace_id"].(string)
	if len(id) != 32 || id == tc.TraceID {
		t.Errorf("garbage header: trace_id = %q, want fresh 32-hex ID", id)
	}
}

// TestForwardedJobTraceCrossNode is the tentpole acceptance check: a job
// submitted to a non-owning node yields one trace with spans from both
// the forwarding node and the owner, retrievable from either node.
func TestForwardedJobTraceCrossNode(t *testing.T) {
	lA, urlA := listenURL(t)
	lB, urlB := listenURL(t)
	newClusterNode(t, lA, Options{
		Workers: 1, QueueSize: 8, Self: urlA, Peers: []string{urlB}, Node: "node-a",
	})
	newClusterNode(t, lB, Options{
		Workers: 1, QueueSize: 8, Self: urlB, Peers: []string{urlA}, Node: "node-b",
	})

	r := newRing([]string{urlA, urlB})
	nameRemote := pickOwned(t, r, urlB)
	code, _, body := postJob(t, urlA, map[string]any{
		"bench": s27Bench, "name": nameRemote, "wait": true,
	})
	if code != http.StatusOK || body["state"] != "done" || body["node"] != urlB {
		t.Fatalf("forwarded submit: status %d (%v)", code, body)
	}
	id := body["id"].(string)
	traceID, _ := body["trace_id"].(string)
	if len(traceID) != 32 {
		t.Fatalf("forwarded job trace_id = %q", traceID)
	}

	for _, base := range []string{urlB, urlA} {
		tcode, tbody := traceDoc(t, base, id)
		if tcode != http.StatusOK {
			t.Fatalf("trace from %s: status %d (%v)", base, tcode, tbody)
		}
		if tbody["trace_id"] != traceID {
			t.Errorf("trace from %s: trace_id = %v, want %v", base, tbody["trace_id"], traceID)
		}
		nodes, _ := tbody["nodes"].([]any)
		if len(nodes) < 2 {
			t.Errorf("trace from %s: nodes = %v, want >= 2 distinct node names", base, nodes)
		}
		names := spanNames(tbody)
		for _, want := range []string{"ingress", "forward", "job", "queue", "run"} {
			if names[want] < 1 {
				t.Errorf("trace from %s: missing span %q (spans: %v)", base, want, names)
			}
		}
		// Every span belongs to the one trace; the forward span parents
		// the remote job span.
		var forwardID string
		for _, sp := range tbody["spans"].([]any) {
			m := sp.(map[string]any)
			if m["name"] == "forward" {
				forwardID, _ = m["span_id"].(string)
			}
		}
		for _, sp := range tbody["spans"].([]any) {
			m := sp.(map[string]any)
			if m["name"] == "job" && m["parent_id"] != forwardID {
				t.Errorf("trace from %s: job span parent = %v, want forward span %q",
					base, m["parent_id"], forwardID)
			}
		}
	}
}

// TestForwardCancelMidHopBalancedSpans: a client that disconnects while
// its submit is forwarded (the hop still in flight) leaves balanced
// span segments on the forwarding node — every started span ended.
func TestForwardCancelMidHopBalancedSpans(t *testing.T) {
	lA, urlA := listenURL(t)
	lB, urlB := listenURL(t)
	svcA := newClusterNode(t, lA, Options{
		Workers: 1, QueueSize: 8, Self: urlA, Peers: []string{urlB}, Node: "node-a",
	})
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	svcB := newClusterNode(t, lB, Options{
		Workers: 1, QueueSize: 8, Self: urlB, Peers: []string{urlA}, Node: "node-b",
		Runner: blockingRunner(started, release),
	})

	r := newRing([]string{urlA, urlB})
	nameRemote := pickOwned(t, r, urlB)
	b, _ := json.Marshal(map[string]any{"bench": s27Bench, "name": nameRemote, "wait": true})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, urlA+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// The job is running on B (the hop happened); now the client walks
	// away mid-wait.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("forwarded job never started on the owner")
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected the canceled request to error")
	}

	balanced := func(s *Service) bool {
		return s.traces.OpenSpans() == 0
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if balanced(svcA) && balanced(svcB) && svcA.traces.Len() > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !balanced(svcA) || svcA.traces.Len() == 0 {
		t.Error("forwarding node has unbalanced or missing trace segments after mid-hop cancel")
	}
	if !balanced(svcB) {
		t.Error("owning node has unbalanced trace segments after mid-hop cancel")
	}
	// The forwarder's ingress segment recorded the hop.
	found := false
	for _, seg := range svcA.traces.All() {
		for _, sp := range seg.Spans {
			if sp.Name == "ingress" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no ingress span retained on the forwarding node")
	}
}

// TestLoopGuardWinsOverTraceHeader: a request carrying ForwardedHeader
// always runs locally — whether its trace header is valid (adopted),
// malformed (fresh trace), or absent — even when the ring says a peer
// owns the circuit. The disagreement costs correlation, never a loop.
func TestLoopGuardWinsOverTraceHeader(t *testing.T) {
	// The peer is a closed listener: any forwarding attempt would fail
	// loudly (failover counter), and loop-guarded submits must not try.
	dead, deadURL := listenURL(t)
	dead.Close()
	lA, urlA := listenURL(t)
	regA := telemetry.NewRegistry()
	var runs countingRunner
	newClusterNode(t, lA, Options{
		Workers: 1, QueueSize: 8, Self: urlA, Peers: []string{deadURL},
		Registry: regA, Runner: runs.runner(), Node: "node-a",
	})

	r := newRing([]string{urlA, deadURL})
	nameDead := pickOwned(t, r, deadURL)

	cases := []struct {
		name   string
		header string
	}{
		{"valid-trace-header", telemetry.TraceContext{TraceID: telemetry.NewTraceID(), SpanID: telemetry.NewSpanID()}.Traceparent()},
		{"malformed-trace-header", "zz-bogus"},
		{"no-trace-header", ""},
	}
	for i, tcase := range cases {
		b, _ := json.Marshal(map[string]any{
			"bench": s27Bench, "name": nameDead, "timeout_ms": 60000 + 1000*i, "wait": true,
		})
		req, err := http.NewRequest(http.MethodPost, urlA+"/v1/jobs", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(ForwardedHeader, "1")
		if tcase.header != "" {
			req.Header.Set(TraceHeader, tcase.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || body["state"] != "done" {
			t.Fatalf("%s: status %d (%v)", tcase.name, resp.StatusCode, body)
		}
		traceID, _ := body["trace_id"].(string)
		if len(traceID) != 32 {
			t.Errorf("%s: trace_id = %q, want 32 hex", tcase.name, traceID)
		}
		if want, ok := telemetry.ParseTraceparent(tcase.header); ok && traceID != want.TraceID {
			t.Errorf("%s: trace_id = %q, want adopted %q", tcase.name, traceID, want.TraceID)
		}
	}
	if runs.count() != 3 {
		t.Errorf("loop-guarded submits ran %d jobs locally, want 3", runs.count())
	}
	if got := regA.Counter(MetricForwardFailovers).Value(); got != 0 {
		t.Errorf("loop-guarded submit attempted forwarding: %d failovers", got)
	}
	if got := regA.Counter(MetricForwarded).Value(); got != 0 {
		t.Errorf("forwarded counter = %d, want 0", got)
	}
}

// metricsSnap decodes GET /v1/node/metrics.
func metricsSnap(t *testing.T, base string) *telemetry.RegistrySnapshot {
	t.Helper()
	resp, err := http.Get(base + "/v1/node/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return &snap
}

// TestClusterMetricsFusion: the fused document's counters and histogram
// buckets are bit-exact sums of the per-node snapshots for series that
// the metrics requests themselves do not perturb.
func TestClusterMetricsFusion(t *testing.T) {
	lA, urlA := listenURL(t)
	lB, urlB := listenURL(t)
	newClusterNode(t, lA, Options{
		Workers: 1, QueueSize: 8, Self: urlA, Peers: []string{urlB}, Node: "node-a",
	})
	newClusterNode(t, lB, Options{
		Workers: 1, QueueSize: 8, Self: urlB, Peers: []string{urlA}, Node: "node-b",
	})

	// Land one job on each node so both registries have submit traffic.
	r := newRing([]string{urlA, urlB})
	for _, name := range []string{pickOwned(t, r, urlA), pickOwned(t, r, urlB)} {
		code, _, body := postJob(t, urlA, map[string]any{
			"bench": s27Bench, "name": name, "wait": true,
		})
		if code != http.StatusOK || body["state"] != "done" {
			t.Fatalf("submit %s: status %d (%v)", name, code, body)
		}
	}

	snapA, snapB := metricsSnap(t, urlA), metricsSnap(t, urlB)
	code, _, body := fetchJSON(t, urlA+"/v1/cluster/metrics")
	if code != http.StatusOK || body["schema"] != ClusterMetricsSchemaV1 {
		t.Fatalf("cluster metrics: status %d (%v)", code, body)
	}
	nodes, _ := body["nodes"].([]any)
	if len(nodes) != 2 {
		t.Fatalf("cluster metrics reports %d nodes: %v", len(nodes), nodes)
	}
	for _, n := range nodes {
		row := n.(map[string]any)
		if row["error"] != nil {
			t.Errorf("node %v error: %v", row["node"], row["error"])
		}
		if row["summary"] == nil {
			t.Errorf("node %v has no summary", row["node"])
		}
	}

	fusedRaw, err := json.Marshal(body["fused"])
	if err != nil {
		t.Fatal(err)
	}
	var fused telemetry.RegistrySnapshot
	if err := json.Unmarshal(fusedRaw, &fused); err != nil {
		t.Fatal(err)
	}

	// Stable counters: submit-path series do not move during metrics
	// fetches, so fused must equal the exact per-node sum.
	for _, series := range []string{
		MetricJobsSubmitted,
		fmt.Sprintf(MetricJobsByState+`{state=%q}`, StateDone),
		MetricForwarded,
	} {
		want := snapA.Counters[series] + snapB.Counters[series]
		if got := fused.Counters[series]; got != want {
			t.Errorf("fused %s = %d, want %d (A=%d B=%d)", series, got, want,
				snapA.Counters[series], snapB.Counters[series])
		}
	}
	if fused.Counters[MetricJobsSubmitted] != 2 {
		t.Errorf("fused submitted = %d, want 2", fused.Counters[MetricJobsSubmitted])
	}

	// The submit latency histogram fuses bucket-by-bucket, bit-exact.
	series := fmt.Sprintf(MetricRequestSeconds+`{endpoint=%q}`, "submit")
	ha, hb, hf := snapA.Histograms[series], snapB.Histograms[series], fused.Histograms[series]
	if hf.Count != ha.Count+hb.Count || hf.Count == 0 {
		t.Fatalf("fused submit histogram count = %d, want %d", hf.Count, ha.Count+hb.Count)
	}
	for i := range hf.Counts {
		var a, b int64
		if i < len(ha.Counts) {
			a = ha.Counts[i]
		}
		if i < len(hb.Counts) {
			b = hb.Counts[i]
		}
		if hf.Counts[i] != a+b {
			t.Errorf("fused submit bucket %d = %d, want %d+%d", i, hf.Counts[i], a, b)
		}
	}

	// The summary digests the fusion: two done jobs across the cluster.
	summary, _ := body["summary"].(map[string]any)
	jobs, _ := summary["jobs_by_state"].(map[string]any)
	if jobs["done"] != float64(2) {
		t.Errorf("summary jobs done = %v, want 2 (%v)", jobs["done"], summary)
	}
}

// TestHealthzIdentity: healthz names the node, reports uptime and the
// build identity.
func TestHealthzIdentity(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, QueueSize: 1, Node: "alpha"})
	code, _, body := fetchJSON(t, srv.URL+"/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d (%v)", code, body)
	}
	if body["node"] != "alpha" {
		t.Errorf("healthz node = %v, want alpha", body["node"])
	}
	up, ok := body["uptime_sec"].(float64)
	if !ok || up < 0 {
		t.Errorf("healthz uptime_sec = %v", body["uptime_sec"])
	}
	gv, _ := body["go_version"].(string)
	if !strings.HasPrefix(gv, "go") {
		t.Errorf("healthz go_version = %q", gv)
	}
	if body["revision"] == "" || body["version"] == "" {
		t.Errorf("healthz build identity missing: %v", body)
	}
}
