// Package client is the Go client for the scanpowerd v1 job API. It
// knows the HTTP details — endpoints, the `{"error":{"code","message"}}`
// envelope, the Retry-After contract — so callers program against typed
// requests, typed jobs and sentinel errors instead of raw HTTP. The JSON
// documents themselves are the repro/api types the server encodes; the
// document names here (Health, ClusterStatus, Trace, ...) are aliases.
//
// The client is cluster-aware. It takes the full endpoint list at
// construction; submits rotate across live endpoints and fail over past
// unreachable or draining nodes, and every job remembers its owning
// node (the `node` field of the submit response, set when the cluster
// forwarded the job to its shard owner) so status polls, cancels and
// result fetches go to the daemon that actually holds the job.
//
// Typical use:
//
//	cl, _ := client.New([]string{"http://10.0.0.1:8344", "http://10.0.0.2:8344"}, client.Options{})
//	job, err := cl.Submit(ctx, client.SubmitRequest{Circuit: "s344"})
//	job, err = cl.Wait(ctx, job)
//	cmp, raw, err := cl.Result(ctx, job)
//
// Errors that originate in the server's envelope come back as an
// *APIError whose Code maps onto the package sentinels, so
// errors.Is(err, client.ErrQueueFull) works across the wire.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/api"
)

// Sentinel errors, one per server error code. Match with errors.Is
// against any error returned by this package.
var (
	ErrQueueFull        = errors.New("client: server queue is full")
	ErrDraining         = errors.New("client: server is draining")
	ErrBadRequest       = errors.New("client: request rejected")
	ErrUnknownBenchmark = errors.New("client: unknown benchmark")
	ErrBadBench         = errors.New("client: bench source rejected")
	ErrBadSource        = errors.New("client: source union rejected")
	ErrBadVerilog       = errors.New("client: verilog source rejected")
	ErrBadActivity      = errors.New("client: activity block rejected")
	ErrUnknownJob       = errors.New("client: unknown job")
	ErrNotReady         = errors.New("client: result not ready")
	ErrCanceled         = errors.New("client: job was canceled")
	ErrDeadline         = errors.New("client: job deadline exceeded")
	ErrJobFailed        = errors.New("client: job failed")
	// ErrConflictingSource reports a SubmitRequest that sets both the
	// typed Source union and the deprecated flat Circuit/Bench/Name
	// fields; pick one form. It wraps ErrBadSource, so errors.Is matches
	// either.
	ErrConflictingSource = fmt.Errorf("%w: both Source and the deprecated Circuit/Bench/Name fields are set", ErrBadSource)
	// ErrNoEndpoints reports that every configured endpoint failed at
	// the transport level (or rejected the submit as draining).
	ErrNoEndpoints = errors.New("client: no reachable endpoint")
)

// codeSentinels maps envelope codes to the package sentinels.
var codeSentinels = map[string]error{
	"queue_full":        ErrQueueFull,
	"draining":          ErrDraining,
	"bad_request":       ErrBadRequest,
	"unknown_benchmark": ErrUnknownBenchmark,
	"bad_bench":         ErrBadBench,
	"bad_source":        ErrBadSource,
	"bad_verilog":       ErrBadVerilog,
	"bad_activity":      ErrBadActivity,
	"unknown_job":       ErrUnknownJob,
	"not_ready":         ErrNotReady,
	"canceled":          ErrCanceled,
	"deadline_exceeded": ErrDeadline,
	"job_failed":        ErrJobFailed,
}

// APIError is a non-2xx response decoded from the server's error
// envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the envelope's machine-readable code ("queue_full", ...).
	Code string
	// Message is the envelope's human-readable message.
	Message string
	// RetryAfter is the parsed Retry-After header (0 if absent) — the
	// server's suggested backpressure pause.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d %s: %s", e.Status, e.Code, e.Message)
}

// Is maps the envelope code onto the package sentinels so callers can
// errors.Is without inspecting Code themselves.
func (e *APIError) Is(target error) bool {
	s, ok := codeSentinels[e.Code]
	return ok && target == s
}

// Options configures New. The zero value is usable.
type Options struct {
	// HTTPClient overrides the transport (nil = a default client with
	// no global timeout, since wait-mode submits legitimately block for
	// the job's runtime; pass request contexts to bound calls).
	HTTPClient *http.Client
	// PollInterval is Wait's status-poll cadence (default 100ms).
	PollInterval time.Duration
}

// Client talks to one scanpowerd daemon or a cluster of them. Safe for
// concurrent use.
type Client struct {
	endpoints []string
	hc        *http.Client
	poll      time.Duration

	mu   sync.Mutex
	next int // round-robin cursor over endpoints
}

// New builds a client over the given base URLs (for example
// http://127.0.0.1:8344). At least one endpoint is required.
func New(endpoints []string, opts Options) (*Client, error) {
	var eps []string
	for _, e := range endpoints {
		if e != "" {
			eps = append(eps, e)
		}
	}
	if len(eps) == 0 {
		return nil, errors.New("client: at least one endpoint is required")
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	poll := opts.PollInterval
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	return &Client{endpoints: eps, hc: hc, poll: poll}, nil
}

// Endpoints returns the configured endpoint list.
func (c *Client) Endpoints() []string {
	out := make([]string, len(c.endpoints))
	copy(out, c.endpoints)
	return out
}

// SubmitRequest describes one job. The circuit comes from Source — a
// discriminated union over built-in names, inline .bench and inline
// Verilog — or from the deprecated flat Circuit/Bench/Name trio; setting
// both forms fails with ErrConflictingSource before any request is sent.
type SubmitRequest struct {
	// Circuit, Bench and Name are the flat source fields of the original
	// v1 submit body.
	//
	// Deprecated: use Source, which adds Verilog and keeps the three
	// variants from being set at once. The flat form stays supported
	// (the server accepts it forever) but cannot be combined with Source.
	Circuit string
	Bench   string
	Name    string
	// Source selects the circuit: exactly one of Source.Circuit (built-in
	// Table I name), Source.Bench or Source.Verilog (inline sources,
	// optionally named via Source.Name).
	Source *api.Source
	// Activity optionally annotates the job with switching activity —
	// explicit per-input factors or a VCD — and adds the weighted
	// transition metrics block to the job's result document.
	Activity *api.Activity
	// Measure selects the measurement backend ("" = server default).
	Measure string
	// Timeout bounds the job's runtime (0 = server default).
	Timeout time.Duration
	// Wait blocks the submit until the job settles.
	Wait bool
	// TraceParent, when set, joins the job to the caller's distributed
	// trace: it is sent as the X-Scanpowerd-Trace header in traceparent
	// form ("00-<32 hex trace id>-<16 hex parent span id>-01"), and the
	// server's job spans parent to it instead of minting a fresh trace.
	TraceParent string
}

// Job is the client-side view of one submitted job. It carries its
// owning node, so follow-up calls land on the right daemon.
type Job struct {
	ID      string
	Node    string // owning daemon's base URL
	TraceID string // distributed trace identity (32 hex chars)
	Circuit string
	Measure string
	State   string
	// Coalesced reports the submit attached to an existing identical job.
	Coalesced bool
	// Err is the server-reported failure message of a failed/canceled job.
	Err       string
	ResultURL string
	Created   time.Time
	Started   time.Time
	Finished  time.Time
}

// Terminal reports whether the job has settled.
func (j *Job) Terminal() bool {
	switch j.State {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

func parseStamp(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}

// jobFrom converts the wire document, defaulting the owning node to the
// endpoint that answered when the server does not advertise one
// (single-node daemons without -self).
func jobFrom(w *api.JobDoc, answeredBy string) *Job {
	node := w.Node
	if node == "" {
		node = answeredBy
	}
	return &Job{
		ID:        w.ID,
		Node:      node,
		TraceID:   w.TraceID,
		Circuit:   w.Circuit,
		Measure:   w.Measure,
		State:     w.State,
		Coalesced: w.Coalesced,
		Err:       w.Error,
		ResultURL: w.ResultURL,
		Created:   parseStamp(w.Created),
		Started:   parseStamp(w.Started),
		Finished:  parseStamp(w.Finished),
	}
}

// decodeError turns a non-2xx response into an *APIError.
func decodeError(resp *http.Response, body []byte) error {
	var env api.Envelope
	apiErr := &APIError{Status: resp.StatusCode}
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		apiErr.Code = env.Error.Code
		apiErr.Message = env.Error.Message
	} else {
		apiErr.Code = "http_" + strconv.Itoa(resp.StatusCode)
		apiErr.Message = string(bytes.TrimSpace(body))
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
		apiErr.RetryAfter = time.Duration(ra) * time.Second
	}
	return apiErr
}

// do issues one request and returns the response body, mapping non-2xx
// responses to *APIError.
func (c *Client) do(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	return c.doHeaders(ctx, method, url, body, nil)
}

// doHeaders is do with extra request headers.
func (c *Client) doHeaders(ctx context.Context, method, url string, body []byte, headers map[string]string) ([]byte, error) {
	resp, raw, err := c.send(ctx, method, url, body, headers)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return nil, decodeError(resp, raw)
	}
	return raw, nil
}

// send issues one request and returns the response with its body read.
func (c *Client) send(ctx context.Context, method, url string, body []byte, headers map[string]string) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, nil, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("client: %w", err)
	}
	return resp, raw, nil
}

// rotate returns the endpoints starting at the round-robin cursor, so
// concurrent submitters spread cold jobs across the cluster entry
// points instead of convoying on the first one.
func (c *Client) rotate() []string {
	c.mu.Lock()
	start := c.next
	c.next = (c.next + 1) % len(c.endpoints)
	c.mu.Unlock()
	out := make([]string, 0, len(c.endpoints))
	for i := 0; i < len(c.endpoints); i++ {
		out = append(out, c.endpoints[(start+i)%len(c.endpoints)])
	}
	return out
}

// Submit sends the job to the cluster, failing over past endpoints that
// are unreachable or draining. Other rejections (bad request, full
// queue) return immediately: they are authoritative answers, not node
// failures.
//
// The body is validated client-side with the same shared validator the
// server runs (repro/api), so a malformed source union or activity block
// fails as an *APIError — matching the server's envelope code and the
// package sentinels — without a round trip.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (*Job, error) {
	if req.Source != nil && (req.Circuit != "" || req.Bench != "" || req.Name != "") {
		return nil, ErrConflictingSource
	}
	wire := api.SubmitBody{
		Circuit:   req.Circuit,
		Bench:     req.Bench,
		Name:      req.Name,
		Source:    req.Source,
		Activity:  req.Activity,
		Measure:   req.Measure,
		TimeoutMS: req.Timeout.Milliseconds(),
		Wait:      req.Wait,
	}
	if verr := wire.Validate(); verr != nil {
		return nil, &APIError{Status: verr.Status, Code: verr.Code, Message: verr.Message}
	}
	body, err := json.Marshal(&wire)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	var headers map[string]string
	if req.TraceParent != "" {
		headers = map[string]string{"X-Scanpowerd-Trace": req.TraceParent}
	}
	var lastErr error
	for _, ep := range c.rotate() {
		raw, err := c.doHeaders(ctx, http.MethodPost, ep+"/v1/jobs", body, headers)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			var apiErr *APIError
			if errors.As(err, &apiErr) && apiErr.Code != "draining" {
				return nil, err
			}
			lastErr = err // transport failure or draining: try the next node
			continue
		}
		var w api.JobDoc
		if err := json.Unmarshal(raw, &w); err != nil {
			return nil, fmt.Errorf("client: bad job document: %w", err)
		}
		return jobFrom(&w, ep), nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w: %w", ErrNoEndpoints, lastErr)
	}
	return nil, ErrNoEndpoints
}

// jobCall issues a job-affine request against the job's owning node.
func (c *Client) jobCall(ctx context.Context, method string, j *Job, path string) (*Job, error) {
	raw, err := c.do(ctx, method, j.Node+path, nil)
	if err != nil {
		return nil, err
	}
	var w api.JobDoc
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("client: bad job document: %w", err)
	}
	return jobFrom(&w, j.Node), nil
}

// Status fetches the job's current state from its owning node.
func (c *Client) Status(ctx context.Context, j *Job) (*Job, error) {
	return c.jobCall(ctx, http.MethodGet, j, "/v1/jobs/"+j.ID)
}

// Cancel aborts the job on its owning node and returns its state after
// the cancel.
func (c *Client) Cancel(ctx context.Context, j *Job) (*Job, error) {
	return c.jobCall(ctx, http.MethodDelete, j, "/v1/jobs/"+j.ID)
}

// Wait polls the job until it settles or ctx ends. The returned job is
// terminal; inspect State (or fetch Result, which maps failure states
// to sentinels) for the outcome.
func (c *Client) Wait(ctx context.Context, j *Job) (*Job, error) {
	if j.Terminal() {
		return j, nil
	}
	ticker := time.NewTicker(c.poll)
	defer ticker.Stop()
	for {
		cur, err := c.Status(ctx, j)
		if err != nil {
			return nil, err
		}
		if cur.Terminal() {
			return cur, nil
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return nil, fmt.Errorf("client: %w", ctx.Err())
		}
	}
}

// Result fetches the scanpower/comparison/v1 result document from the
// job's owning node, returning both the decoded comparison and the raw
// response bytes (which are canonical: byte-identical across recomputes
// and warm-start serves of the same job). Non-done jobs surface as
// ErrNotReady, ErrCanceled, ErrDeadline or ErrJobFailed.
func (c *Client) Result(ctx context.Context, j *Job) (*scanpower.Comparison, []byte, error) {
	raw, err := c.do(ctx, http.MethodGet, j.Node+"/v1/jobs/"+j.ID+"/result", nil)
	if err != nil {
		return nil, nil, err
	}
	var cmp scanpower.Comparison
	if err := json.Unmarshal(raw, &cmp); err != nil {
		return nil, nil, fmt.Errorf("client: bad result document: %w", err)
	}
	return &cmp, raw, nil
}

// Benchmarks lists the built-in Table I circuits as structured entries
// (name plus published gate/scan-cell/chain counts). BenchmarkNames
// returns the bare name list for callers that only route on names.
func (c *Client) Benchmarks(ctx context.Context) ([]api.Benchmark, error) {
	var lastErr error
	for _, ep := range c.rotate() {
		raw, err := c.do(ctx, http.MethodGet, ep+"/v1/benchmarks", nil)
		if err != nil {
			lastErr = err
			continue
		}
		var out api.BenchmarksResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		return out.Benchmarks, nil
	}
	return nil, fmt.Errorf("%w: %w", ErrNoEndpoints, lastErr)
}

// BenchmarkNames lists the built-in circuit names (the `names` field of
// the v1 benchmarks response, which preserves the pre-structured shape).
func (c *Client) BenchmarkNames(ctx context.Context) ([]string, error) {
	entries, err := c.Benchmarks(ctx)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names, nil
}

// The v1 response documents, declared once in repro/api and shared with
// the server.
type (
	Health            = api.Health
	StoreStatus       = api.StoreStatus
	ClusterStatus     = api.ClusterStatus
	ClusterNode       = api.ClusterNode
	ClusterMetrics    = api.ClusterMetrics
	NodeMetrics       = api.NodeMetrics
	MetricsSummary    = api.MetricsSummary
	LatencySummary    = api.LatencySummary
	MetricsSnapshot   = api.MetricsSnapshot
	HistogramSnapshot = api.HistogramSnapshot
	Trace             = api.Trace
	Span              = api.Span
)

// Health fetches one node's healthz document. A draining daemon answers
// 503 with a valid body; that is returned as a Health with Status
// "draining", not an error.
func (c *Client) Health(ctx context.Context, node string) (*Health, error) {
	resp, raw, err := c.send(ctx, http.MethodGet, node+"/v1/healthz", nil, nil)
	if err != nil {
		return nil, err
	}
	var h Health
	derr := json.Unmarshal(raw, &h)
	ok := resp.StatusCode >= 200 && resp.StatusCode < 300
	switch {
	case ok && derr != nil:
		return nil, fmt.Errorf("client: bad healthz document: %w", derr)
	case !ok && (derr != nil || h.Status == ""):
		// Only a draining node's 503 carries the document in place of an
		// envelope; anything else is an ordinary error response.
		return nil, decodeError(resp, raw)
	}
	return &h, nil
}

// ClusterStatus fetches the membership view from the first reachable
// endpoint.
func (c *Client) ClusterStatus(ctx context.Context) (*ClusterStatus, error) {
	var lastErr error
	for _, ep := range c.rotate() {
		raw, err := c.do(ctx, http.MethodGet, ep+"/v1/cluster", nil)
		if err != nil {
			lastErr = err
			continue
		}
		var cs ClusterStatus
		if err := json.Unmarshal(raw, &cs); err != nil {
			return nil, fmt.Errorf("client: bad cluster document: %w", err)
		}
		return &cs, nil
	}
	return nil, fmt.Errorf("%w: %w", ErrNoEndpoints, lastErr)
}

// Trace fetches the job's merged distributed trace from its owning node,
// which pulls the remote segments (the forwarding hop's ingress span, for
// example) from its peers before merging.
func (c *Client) Trace(ctx context.Context, j *Job) (*Trace, error) {
	raw, err := c.do(ctx, http.MethodGet, j.Node+"/v1/jobs/"+j.ID+"/trace", nil)
	if err != nil {
		return nil, err
	}
	var t Trace
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("client: bad trace document: %w", err)
	}
	return &t, nil
}

// ClusterMetrics fetches the fused cluster metrics snapshot from the
// first reachable endpoint: counters and gauges summed per series across
// live peers, histogram buckets bit-exact sums, with per-node summaries.
func (c *Client) ClusterMetrics(ctx context.Context) (*ClusterMetrics, error) {
	var lastErr error
	for _, ep := range c.rotate() {
		raw, err := c.do(ctx, http.MethodGet, ep+"/v1/cluster/metrics", nil)
		if err != nil {
			lastErr = err
			continue
		}
		var cm ClusterMetrics
		if err := json.Unmarshal(raw, &cm); err != nil {
			return nil, fmt.Errorf("client: bad cluster metrics document: %w", err)
		}
		return &cm, nil
	}
	return nil, fmt.Errorf("%w: %w", ErrNoEndpoints, lastErr)
}

// NodeMetricsSnapshot fetches one node's raw typed registry snapshot.
func (c *Client) NodeMetricsSnapshot(ctx context.Context, node string) (*MetricsSnapshot, error) {
	raw, err := c.do(ctx, http.MethodGet, node+"/v1/node/metrics", nil)
	if err != nil {
		return nil, err
	}
	var ms MetricsSnapshot
	if err := json.Unmarshal(raw, &ms); err != nil {
		return nil, fmt.Errorf("client: bad metrics document: %w", err)
	}
	return &ms, nil
}
