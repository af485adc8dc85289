package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// s27 is the real ISCAS89 s27 benchmark — small enough that a full
// experiment runs in milliseconds, sequential enough (3 FFs) that the
// scan-power pipeline is non-degenerate. It uses AND/OR gates so the
// inline-bench path also exercises Prepare's library mapping.
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

// newTestServer boots a Service under httptest and arranges teardown.
func newTestServer(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	svc := New(opts)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

// postJob submits a job and decodes the response envelope.
func postJob(t *testing.T, base string, body map[string]any) (int, http.Header, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, resp.Header, out
}

func fetchJSON(t *testing.T, url string) (int, http.Header, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, out
}

func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	env, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("response is not an error envelope: %v", body)
	}
	code, _ := env["code"].(string)
	return code
}

// pollState polls the job endpoint until the state predicate holds.
func pollState(t *testing.T, base, id string, want func(string) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, _, body := fetchJSON(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d (%v)", id, code, body)
		}
		if st, _ := body["state"].(string); want(st) {
			return body
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach wanted state", id)
	return nil
}

// blockingRunner returns a Runner that parks jobs until release is
// closed (or the job context ends), reporting each start on started.
func blockingRunner(started chan string, release chan struct{}) Runner {
	return func(ctx context.Context, c *netlist.Circuit, cfg scanpower.Config) (*scanpower.Comparison, error) {
		select {
		case started <- c.Name:
		default:
		}
		select {
		case <-release:
			return &scanpower.Comparison{Circuit: c.Name}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestSubmitWaitResult drives the happy path end to end with a real
// experiment: inline bench in, wait-mode submit, v1 result document out.
func TestSubmitWaitResult(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, QueueSize: 2})

	code, _, body := postJob(t, srv.URL, map[string]any{
		"bench": s27Bench, "name": "s27", "wait": true,
	})
	if code != http.StatusOK {
		t.Fatalf("wait submit: status %d (%v)", code, body)
	}
	if st := body["state"]; st != "done" {
		t.Fatalf("wait submit settled in state %v (err %v)", st, body["error"])
	}
	id, _ := body["id"].(string)
	resultURL, _ := body["result_url"].(string)
	if id == "" || resultURL == "" {
		t.Fatalf("missing id/result_url in %v", body)
	}

	resp, err := http.Get(srv.URL + resultURL)
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d: %s", resp.StatusCode, raw)
	}
	var cmp scanpower.Comparison
	if err := json.Unmarshal(raw, &cmp); err != nil {
		t.Fatalf("result is not scanpower/comparison/v1: %v\n%s", err, raw)
	}
	if cmp.Circuit != "s27" || cmp.Patterns == 0 || cmp.Stats.FFs != 3 {
		t.Errorf("result looks wrong: circuit=%q patterns=%d ffs=%d",
			cmp.Circuit, cmp.Patterns, cmp.Stats.FFs)
	}
	if cmp.Proposed.DynamicPerHz >= cmp.Traditional.DynamicPerHz {
		t.Errorf("proposed dynamic %.3e not below traditional %.3e",
			cmp.Proposed.DynamicPerHz, cmp.Traditional.DynamicPerHz)
	}

	// The status endpoint agrees, and the terminal job stays pollable.
	got := pollState(t, srv.URL, id, func(st string) bool { return st == "done" })
	if got["result_url"] != resultURL {
		t.Errorf("status result_url %v != %v", got["result_url"], resultURL)
	}
}

// TestSubmitAsyncPoll covers the 202-then-poll flow and the 409 not-ready
// result state.
func TestSubmitAsyncPoll(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	_, srv := newTestServer(t, Options{
		Workers: 1, QueueSize: 2,
		Runner: blockingRunner(started, release),
	})

	code, _, body := postJob(t, srv.URL, map[string]any{"circuit": "s344"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, body)
	}
	id, _ := body["id"].(string)
	<-started

	rcode, hdr, rbody := fetchJSON(t, srv.URL+"/v1/jobs/"+id+"/result")
	if rcode != http.StatusConflict || errCode(t, rbody) != "not_ready" {
		t.Fatalf("early result: status %d code %q", rcode, errCode(t, rbody))
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("not-ready result without Retry-After")
	}

	close(release)
	pollState(t, srv.URL, id, func(st string) bool { return st == "done" })
}

// TestQueueFullBackpressure fills the queue (1 worker busy + 1 waiting)
// and checks the third submit is rejected with 429 and Retry-After.
func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	reg := telemetry.NewRegistry()
	_, srv := newTestServer(t, Options{
		Workers: 1, QueueSize: 1, Registry: reg,
		Runner: blockingRunner(started, release),
	})

	code, _, body := postJob(t, srv.URL, map[string]any{"circuit": "s344"})
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d (%v)", code, body)
	}
	<-started // the worker is now parked on the first job

	if code, _, body = postJob(t, srv.URL, map[string]any{"circuit": "s382"}); code != http.StatusAccepted {
		t.Fatalf("second submit: status %d (%v)", code, body)
	}

	code, hdr, body := postJob(t, srv.URL, map[string]any{"circuit": "s444"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429 (%v)", code, body)
	}
	if errCode(t, body) != "queue_full" {
		t.Errorf("error code %q, want queue_full", errCode(t, body))
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(release)

	// After the backlog settles, the rejection is visible on /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		MetricJobsRejected, MetricJobsSubmitted, MetricQueueDepth,
		MetricInflight, MetricRequestSeconds, MetricResponses,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestCoalescing checks identical submissions attach to one job: the
// measure name keys nothing (every job runs the packed kernel), while a
// different deadline is a different job.
func TestCoalescing(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	_, srv := newTestServer(t, Options{
		Workers: 1, QueueSize: 2,
		Runner: blockingRunner(started, release),
	})

	code, _, first := postJob(t, srv.URL, map[string]any{"circuit": "s344"})
	if code != http.StatusAccepted || first["coalesced"] == true {
		t.Fatalf("first submit: status %d (%v)", code, first)
	}
	code, _, second := postJob(t, srv.URL, map[string]any{"circuit": "s344"})
	if code != http.StatusOK {
		t.Fatalf("coalesced submit: status %d (%v)", code, second)
	}
	if second["coalesced"] != true || second["id"] != first["id"] {
		t.Fatalf("second submit not coalesced onto %v: %v", first["id"], second)
	}
	// Another backend name coalesces onto the default job, which still
	// reports the one kernel it runs.
	code, _, dense := postJob(t, srv.URL, map[string]any{"circuit": "s344", "measure": "dense"})
	if code != http.StatusOK || dense["coalesced"] != true || dense["id"] != first["id"] {
		t.Fatalf("dense submit not coalesced onto %v: status %d (%v)", first["id"], code, dense)
	}
	if dense["measure"] != "packed" || first["measure"] != "packed" {
		t.Errorf("job measure = %v / %v, want packed", first["measure"], dense["measure"])
	}
	// A different deadline is a different job.
	code, _, third := postJob(t, srv.URL, map[string]any{"circuit": "s344", "timeout_ms": 60000})
	if code != http.StatusAccepted || third["id"] == first["id"] {
		t.Fatalf("distinct-timeout submit coalesced: status %d (%v)", code, third)
	}
	close(release)
	pollState(t, srv.URL, first["id"].(string), func(st string) bool { return st == "done" })
}

// TestJobDeadline submits with a tiny timeout_ms against a parked runner
// and expects the failed state and a 504 result.
func TestJobDeadline(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	_, srv := newTestServer(t, Options{
		Workers: 1, QueueSize: 2,
		Runner: blockingRunner(started, release),
	})

	code, _, body := postJob(t, srv.URL, map[string]any{"circuit": "s344", "timeout_ms": 50})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, body)
	}
	id, _ := body["id"].(string)
	got := pollState(t, srv.URL, id, func(st string) bool { return st == "failed" })
	if msg, _ := got["error"].(string); !strings.Contains(msg, "deadline") {
		t.Errorf("failed job error %q does not mention the deadline", msg)
	}

	rcode, _, rbody := fetchJSON(t, srv.URL+"/v1/jobs/"+id+"/result")
	if rcode != http.StatusGatewayTimeout || errCode(t, rbody) != "deadline_exceeded" {
		t.Errorf("result: status %d code %q, want 504 deadline_exceeded", rcode, errCode(t, rbody))
	}
}

// TestWaitDisconnectCancels checks that a client walking away from a
// wait-mode submit cancels the job it created.
func TestWaitDisconnectCancels(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	_, srv := newTestServer(t, Options{
		Workers: 1, QueueSize: 2,
		Runner: blockingRunner(started, release),
	})

	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		b, _ := json.Marshal(map[string]any{"circuit": "s344", "wait": true})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			srv.URL+"/v1/jobs", bytes.NewReader(b))
		if err != nil {
			waitErr <- err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		waitErr <- err
	}()
	<-started // the wait-mode job is running

	// A second submit coalesces onto it — that is how we learn its ID
	// without the (never-delivered) wait response.
	code, _, body := postJob(t, srv.URL, map[string]any{"circuit": "s344"})
	if code != http.StatusOK || body["coalesced"] != true {
		t.Fatalf("coalescing probe: status %d (%v)", code, body)
	}
	id, _ := body["id"].(string)

	cancel() // client disconnects
	if err := <-waitErr; err == nil {
		t.Fatal("wait request returned without error despite cancellation")
	}
	got := pollState(t, srv.URL, id, func(st string) bool { return st == "canceled" })

	rcode, _, rbody := fetchJSON(t, srv.URL+"/v1/jobs/"+id+"/result")
	if rcode != http.StatusGone || errCode(t, rbody) != "canceled" {
		t.Errorf("result of canceled job: status %d code %q, want 410 canceled", rcode, errCode(t, rbody))
	}
	_ = got
}

// TestCancelEndpoint covers DELETE /v1/jobs/{id} for a queued job.
func TestCancelEndpoint(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	_, srv := newTestServer(t, Options{
		Workers: 1, QueueSize: 2,
		Runner: blockingRunner(started, release),
	})

	postJob(t, srv.URL, map[string]any{"circuit": "s344"})
	<-started
	code, _, body := postJob(t, srv.URL, map[string]any{"circuit": "s382"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, body)
	}
	id, _ := body["id"].(string)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out["state"] != "canceled" {
		t.Fatalf("DELETE: status %d state %v", resp.StatusCode, out["state"])
	}
}

// TestDrainRejectsSubmits checks graceful drain: running jobs finish,
// healthz flips to 503, new submits are rejected with the draining code.
func TestDrainRejectsSubmits(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	svc, srv := newTestServer(t, Options{
		Workers: 1, QueueSize: 2,
		Runner: blockingRunner(started, release),
	})

	code, _, body := postJob(t, srv.URL, map[string]any{"circuit": "s344"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, body)
	}
	id, _ := body["id"].(string)
	<-started

	drained := make(chan error, 1)
	go func() { drained <- svc.Drain(context.Background()) }()

	// healthz flips to draining.
	deadline := time.Now().Add(10 * time.Second)
	for {
		hcode, _, hbody := fetchJSON(t, srv.URL+"/v1/healthz")
		if hcode == http.StatusServiceUnavailable && hbody["status"] == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported draining (last: %d %v)", hcode, hbody)
		}
		time.Sleep(5 * time.Millisecond)
	}

	scode, _, sbody := postJob(t, srv.URL, map[string]any{"circuit": "s382"})
	if scode != http.StatusServiceUnavailable || errCode(t, sbody) != "draining" {
		t.Fatalf("submit during drain: status %d code %q", scode, errCode(t, sbody))
	}

	close(release) // let the running job finish
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The drained service still answers reads.
	got := pollState(t, srv.URL, id, func(st string) bool { return st == "done" })
	if got["state"] != "done" {
		t.Fatalf("running job did not survive the drain: %v", got)
	}
}

// TestSubmitValidation covers the error envelope for each bad input.
func TestSubmitValidation(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, QueueSize: 1})

	cases := []struct {
		name   string
		body   map[string]any
		status int
		code   string
	}{
		{"empty", map[string]any{}, http.StatusBadRequest, "bad_request"},
		{"both sources", map[string]any{"circuit": "s344", "bench": s27Bench}, http.StatusBadRequest, "bad_request"},
		{"bad measure", map[string]any{"circuit": "s344", "measure": "quantum"}, http.StatusBadRequest, "bad_request"},
		{"negative timeout", map[string]any{"circuit": "s344", "timeout_ms": -1}, http.StatusBadRequest, "bad_request"},
		{"unknown benchmark", map[string]any{"circuit": "s9999"}, http.StatusNotFound, "unknown_benchmark"},
		{"malformed bench", map[string]any{"bench": "INPUT(a)\nnot an assignment\n"}, http.StatusUnprocessableEntity, "bad_bench"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := postJob(t, srv.URL, tc.body)
			if code != tc.status || errCode(t, body) != tc.code {
				t.Errorf("status %d code %q, want %d %q (%v)",
					code, errCode(t, body), tc.status, tc.code, body)
			}
		})
	}

	if code, _, body := fetchJSON(t, srv.URL+"/v1/jobs/job-999"); code != http.StatusNotFound ||
		errCode(t, body) != "unknown_job" {
		t.Errorf("unknown job: status %d code %q", code, errCode(t, body))
	}
}

// TestBenchmarksEndpoint checks the circuit listing: structured entries
// with published statistics, plus the historical bare name array.
func TestBenchmarksEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, QueueSize: 1})
	code, _, body := fetchJSON(t, srv.URL+"/v1/benchmarks")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/benchmarks: status %d", code)
	}
	entries, _ := body["benchmarks"].([]any)
	if len(entries) != 12 {
		t.Fatalf("got %d benchmarks, want 12: %v", len(entries), entries)
	}
	found := false
	for _, e := range entries {
		row, _ := e.(map[string]any)
		if row["name"] != "s344" {
			continue
		}
		found = true
		if row["gates"] != float64(160) || row["scan_cells"] != float64(15) || row["chains"] != float64(1) {
			t.Errorf("s344 stats wrong: %v", row)
		}
	}
	if !found {
		t.Errorf("s344 missing from %v", entries)
	}
	names, _ := body["names"].([]any)
	if len(names) != 12 || names[0] != "s1196" {
		t.Fatalf("legacy names array wrong: %v", names)
	}
}

// TestFailedJobLeavesCoalescingMap checks a failed job is not served as a
// cache entry to an identical retry.
func TestFailedJobLeavesCoalescingMap(t *testing.T) {
	fail := true
	_, srv := newTestServer(t, Options{
		Workers: 1, QueueSize: 2,
		Runner: func(ctx context.Context, c *netlist.Circuit, cfg scanpower.Config) (*scanpower.Comparison, error) {
			if fail {
				fail = false
				return nil, fmt.Errorf("injected failure")
			}
			return &scanpower.Comparison{Circuit: c.Name}, nil
		},
	})

	code, _, body := postJob(t, srv.URL, map[string]any{"circuit": "s344"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	id := body["id"].(string)
	pollState(t, srv.URL, id, func(st string) bool { return st == "failed" })

	rcode, _, rbody := fetchJSON(t, srv.URL+"/v1/jobs/"+id+"/result")
	if rcode != http.StatusInternalServerError || errCode(t, rbody) != "job_failed" {
		t.Errorf("failed result: status %d code %q", rcode, errCode(t, rbody))
	}

	// The retry is a fresh job, not a coalesced hit on the failure.
	code, _, retry := postJob(t, srv.URL, map[string]any{"circuit": "s344"})
	if code != http.StatusAccepted || retry["coalesced"] == true || retry["id"] == id {
		t.Fatalf("retry after failure coalesced: status %d (%v)", code, retry)
	}
	pollState(t, srv.URL, retry["id"].(string), func(st string) bool { return st == "done" })

	// A completed job, by contrast, is served as a cache entry.
	code, _, cached := postJob(t, srv.URL, map[string]any{"circuit": "s344"})
	if code != http.StatusOK || cached["coalesced"] != true || cached["id"] != retry["id"] {
		t.Fatalf("done job not served as cache entry: status %d (%v)", code, cached)
	}
}

// lockedBuffer is an io.Writer the service's workers and the test can
// share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunnerPanicFailsJob checks the panic boundary around the Runner: a
// panicking job fails with an internal error and a logged stack, its run
// span closes with that error, the daemon stays healthy, and the next job
// on the same worker finishes.
func TestRunnerPanicFailsJob(t *testing.T) {
	var logs lockedBuffer
	first := true
	svc, srv := newTestServer(t, Options{
		Workers: 1, QueueSize: 2,
		Logger: slog.New(slog.NewTextHandler(&logs, nil)),
		Runner: func(ctx context.Context, c *netlist.Circuit, cfg scanpower.Config) (*scanpower.Comparison, error) {
			if first {
				first = false
				panic("injected panic")
			}
			return &scanpower.Comparison{Circuit: c.Name}, nil
		},
	})

	code, _, body := postJob(t, srv.URL, map[string]any{"circuit": "s344"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, body)
	}
	id := body["id"].(string)
	job := pollState(t, srv.URL, id, func(st string) bool { return st != "queued" && st != "running" })
	if job["state"] != "failed" {
		t.Fatalf("panicking job settled as %v, want failed", job["state"])
	}
	if msg, _ := job["error"].(string); !strings.HasPrefix(msg, "internal error: injected panic") {
		t.Errorf("job error = %q, want an internal error naming the panic", msg)
	}
	if l := logs.String(); !strings.Contains(l, `msg="job panicked"`) || !strings.Contains(l, "runtime/debug.Stack") {
		t.Errorf("log lacks the panic line with its stack:\n%s", l)
	}
	_, tr := traceDoc(t, srv.URL, id)
	var runErr any
	for _, sp := range tr["spans"].([]any) {
		if m := sp.(map[string]any); m["name"] == "run" {
			attrs, _ := m["attrs"].(map[string]any)
			runErr = attrs["error"]
		}
	}
	if msg, _ := runErr.(string); !strings.HasPrefix(msg, "internal error:") {
		t.Errorf("run span error = %v, want the internal error", runErr)
	}

	if hcode, _, hz := fetchJSON(t, srv.URL+"/v1/healthz"); hcode != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz after the panic: status %d (%v)", hcode, hz)
	}
	code, _, body = postJob(t, srv.URL, map[string]any{"circuit": "s382"})
	if code != http.StatusAccepted {
		t.Fatalf("second submit: status %d (%v)", code, body)
	}
	pollState(t, srv.URL, body["id"].(string), func(st string) bool { return st == "done" })
	if got := svc.reg.Counter(MetricJobPanics).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricJobPanics, got)
	}
}

// TestEnginePanicFailsJobOnce runs a panic inside ATPG generation through
// the shared Engine, not a fake Runner: the job fails with an internal
// error, and a resubmit of the same circuit regenerates and finishes
// instead of waiting forever on the pattern-cache entry the panicking
// generation had claimed.
func TestEnginePanicFailsJobOnce(t *testing.T) {
	svc, srv := newTestServer(t, Options{Workers: 1, QueueSize: 2})
	var once sync.Once
	// Set before the first submit, so no worker is reading the Hooks.
	svc.Engine().Hooks.OnSubStage = func(_, stage, _ string, _ time.Duration, _ scanpower.StageInfo) {
		if stage == scanpower.StageATPG {
			once.Do(func() { panic("injected ATPG panic") })
		}
	}

	submit := func() string {
		t.Helper()
		code, _, body := postJob(t, srv.URL, map[string]any{"circuit": "s344"})
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d (%v)", code, body)
		}
		return body["id"].(string)
	}
	terminal := func(st string) bool { return st != "queued" && st != "running" }
	job := pollState(t, srv.URL, submit(), terminal)
	if job["state"] != "failed" {
		t.Fatalf("job with a panicking ATPG settled as %v, want failed", job["state"])
	}
	if msg, _ := job["error"].(string); !strings.HasPrefix(msg, "internal error: injected ATPG panic") {
		t.Errorf("job error = %q, want an internal error naming the panic", msg)
	}
	if job = pollState(t, srv.URL, submit(), terminal); job["state"] != "done" {
		t.Fatalf("resubmit after the panic settled as %v (%v), want done", job["state"], job["error"])
	}
}

// TestEngineWorkerPanicFailsJobOnce is TestEnginePanicFailsJobOnce with
// the panic on an ATPG scheduler worker goroutine, which the job's own
// panic boundary cannot recover: generation returns the panic as an
// error, the job fails with an internal error, and a resubmit of the same
// circuit regenerates and finishes.
func TestEngineWorkerPanicFailsJobOnce(t *testing.T) {
	cfg := scanpower.DefaultConfig()
	cfg.ATPG.Workers = 2
	var logs lockedBuffer
	svc, srv := newTestServer(t, Options{Workers: 1, QueueSize: 2, Cfg: cfg,
		Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	var once sync.Once
	// Set before the first submit, so no worker is reading the Hooks.
	svc.Engine().Hooks.OnPodemChunk = func(string, int, int, time.Duration) {
		once.Do(func() { panic("injected worker panic") })
	}

	submit := func() string {
		t.Helper()
		code, _, body := postJob(t, srv.URL, map[string]any{"circuit": "s344"})
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d (%v)", code, body)
		}
		return body["id"].(string)
	}
	terminal := func(st string) bool { return st != "queued" && st != "running" }
	job := pollState(t, srv.URL, submit(), terminal)
	if job["state"] != "failed" {
		t.Fatalf("job with a panicking ATPG worker settled as %v, want failed", job["state"])
	}
	if msg, _ := job["error"].(string); msg != "internal error: injected worker panic" {
		t.Errorf("job error = %q, want an internal error naming the panic", msg)
	}
	if l := logs.String(); !strings.Contains(l, `msg="job panicked"`) || !strings.Contains(l, "runtime/debug.Stack") {
		t.Errorf("log lacks the panic line with the worker's stack:\n%s", l)
	}
	if job = pollState(t, srv.URL, submit(), terminal); job["state"] != "done" {
		t.Fatalf("resubmit after the panic settled as %v (%v), want done", job["state"], job["error"])
	}
	if got := svc.reg.Counter(MetricJobPanics).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricJobPanics, got)
	}
}
