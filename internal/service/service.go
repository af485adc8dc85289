// Package service is the scan-power job service behind cmd/scanpowerd: an
// HTTP/JSON front end that accepts Table I experiments as queued jobs and
// runs them on a shared scanpower.Engine, so many clients ride one
// memoized ATPG cache.
//
// The layer adds what a traffic-bearing daemon needs on top of the
// in-process Engine:
//
//   - a bounded job queue with backpressure — submits beyond the queue
//     capacity are rejected with 429 and a Retry-After header instead of
//     piling up memory;
//   - per-job deadlines (requested as timeout_ms, clamped to a server
//     maximum) and cancellation — DELETE /v1/jobs/{id}, or the client
//     disconnecting from a wait-mode submit, aborts the job's context all
//     the way down the Engine's hot loops;
//   - singleflight coalescing — identical requests (same circuit
//     fingerprint, measurement backend and deadline class) attach to one
//     job and therefore one cache entry instead of re-running;
//   - graceful drain — new submits get 503 while queued and running jobs
//     finish, so SIGTERM never truncates a result or a trace span;
//   - telemetry — queue-depth/inflight gauges, per-endpoint latency
//     histograms and job counters in a telemetry.Registry, and the
//     run → circuit → stage span tree through the scanpower.Recorder.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/api"
	"repro/internal/atpg"
	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Metric families emitted by the service layer. Endpoint label values are
// the route names: submit, job, result, cancel, benchmarks, healthz,
// cluster.
const (
	MetricQueueDepth     = "scanpower_service_queue_depth" // gauge
	MetricInflight       = "scanpower_service_inflight"    // gauge
	MetricJobsSubmitted  = "scanpower_service_jobs_submitted_total"
	MetricJobsCoalesced  = "scanpower_service_jobs_coalesced_total"
	MetricJobsRejected   = "scanpower_service_jobs_rejected_total"
	MetricJobsByState    = "scanpower_service_jobs_total"      // counter{state}
	MetricRequestSeconds = "scanpower_service_request_seconds" // histogram{endpoint}
	MetricResponses      = "scanpower_service_responses_total" // counter{endpoint,code}

	// Persistent result store (PR 6): disk hits served with no Engine
	// work, misses that fell through to compute, and entries persisted.
	MetricStoreHits   = "scanpower_service_store_hits_total"
	MetricStoreMisses = "scanpower_service_store_misses_total"
	MetricStorePuts   = "scanpower_service_store_puts_total"
	// Panics recovered at the job boundary: in the Runner, in generating a
	// built-in circuit, or on an ATPG scheduler worker. Each fails one job.
	MetricJobPanics = "scanpower_service_job_panics_total"
	// Cluster forwarding: submits shipped to their owning peer, and
	// failovers past an unhealthy peer to the next ring replica.
	MetricForwarded        = "scanpower_service_forwarded_total"
	MetricForwardFailovers = "scanpower_service_forward_failovers_total"
	// Distributed tracing: trace segments retained in the in-memory ring
	// (a gauge tracking the ring occupancy) and remote segments pulled
	// from peers while answering trace queries.
	MetricTraceSegments   = "scanpower_service_trace_segments"
	MetricTracePulls      = "scanpower_service_trace_pulls_total"
	MetricTracePullErrors = "scanpower_service_trace_pull_errors_total"
)

// JobState enumerates the lifecycle of a job. Terminal states are
// StateDone, StateFailed and StateCanceled.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Runner executes one job's experiment. The default runs
// Engine.CompareWith on the service's shared Engine; tests substitute
// deterministic stand-ins, and future backends (remote farms, other
// analyses) plug in here.
type Runner func(ctx context.Context, c *netlist.Circuit, cfg scanpower.Config) (*scanpower.Comparison, error)

// Options configures New. The zero value is usable: default config,
// GOMAXPROCS-style worker default of 1, an unbuffered queue (admission
// requires an idle worker), no deadlines, and no telemetry sinks.
type Options struct {
	// Cfg is the base experiment configuration; per-job overrides
	// (measurement backend) are applied on top of it. Zero means
	// scanpower.DefaultConfig().
	Cfg scanpower.Config
	// Workers is the number of concurrent job executors (default 1).
	Workers int
	// QueueSize bounds the number of jobs waiting beyond the ones
	// running. 0 means no waiting room: a submit is admitted only if a
	// worker is idle, otherwise rejected with 429.
	QueueSize int
	// DefaultTimeout applies to jobs that request no deadline (0 = none).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines; larger requests are
	// clamped (0 = no cap).
	MaxTimeout time.Duration
	// RetainJobs bounds how many terminal jobs are kept for result
	// polling; the oldest are evicted first (default 1024).
	RetainJobs int
	// Registry receives service and Engine metrics (nil drops them).
	Registry *telemetry.Registry
	// Trace receives the job span tree (nil drops it).
	Trace *telemetry.TraceWriter
	// Runner overrides job execution (nil = the shared Engine).
	Runner Runner
	// Store persists completed results across restarts (nil = none).
	// Submits whose key is already stored become done jobs immediately,
	// with the stored wire bytes served verbatim and no Engine work.
	Store *store.Store
	// Self is this node's externally reachable base URL (for example
	// http://10.0.0.1:8344). Job responses carry it as the owning node so
	// cluster clients can direct polls at the right daemon. Optional for
	// single-node deployments; required for cluster mode.
	Self string
	// Peers lists the other cluster nodes' base URLs. Non-empty (with
	// Self set) enables cluster mode: submits are consistent-hash-sharded
	// by circuit fingerprint across Self+Peers, and non-owned submits are
	// forwarded to their owner with failover to ring successors.
	Peers []string
	// Node is this node's display name, tagged onto every trace span and
	// log line and reported by healthz. Defaults to Self, then "local".
	Node string
	// Logger receives structured service logs, each line carrying node,
	// and where applicable trace_id and job_id fields (nil drops them).
	Logger *slog.Logger
	// TraceCapacity bounds the in-memory ring of retained per-job trace
	// segments (0 = telemetry.DefTraceCapacity).
	TraceCapacity int
}

// measureName is the measurement backend every job reports and every
// store entry is keyed under. The v1 API still accepts "fast" and "dense",
// but they name bit-identical kernels and all run the packed one, so the
// name keys nothing: all three coalesce onto one job and share one stored
// result.
const measureName = "packed"

// jobKey identifies coalesceable submissions: the frozen circuit's
// structural fingerprint plus every override that changes what the job
// computes or how long it may run.
type jobKey struct {
	fp        uint64
	timeoutMS int64
	// activity is the switching-activity profile hash (0 = no profile):
	// an activity annotation adds columns to the result, so annotated and
	// plain submits of the same circuit must not coalesce.
	activity uint64
}

// storeKey is the result-store key of the job's result: timeouts change
// how long a job may run, never its bytes, so they are not part of it.
func (k jobKey) storeKey() store.Key {
	return store.Key{Fingerprint: k.fp, Measure: measureName, Activity: k.activity}
}

// Job is one queued experiment. All mutable fields are guarded by the
// owning Service's mutex; Done is closed exactly once when the job
// reaches a terminal state.
type Job struct {
	ID      string
	Circuit string
	Timeout time.Duration

	key jobKey
	// circ and activity are the run's input; finishLocked drops both, so
	// a terminal job in the table never holds a netlist. circ is nil for a
	// built-in circuit, which runJob generates by name on the worker.
	circ     *netlist.Circuit
	activity *power.ActivityProfile // nil = no activity annotation

	// Distributed trace identity and this node's segment of the span
	// tree. rootSpan covers the job's whole lifetime; queueSpan the wait
	// for a worker; runSpan the Engine execution.
	traceID  string
	spans    *telemetry.SpanBuilder
	rootSpan *telemetry.BuildSpan
	quSpan   *telemetry.BuildSpan
	runSpan  *telemetry.BuildSpan

	state    JobState
	result   *scanpower.Comparison
	wire     []byte // canonical comparison/v1 bytes, set when state is done
	err      error
	created  time.Time
	started  time.Time
	finished time.Time

	done   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
}

// Snapshot is a consistent copy of a job's observable state.
type Snapshot struct {
	ID       string
	TraceID  string
	Circuit  string
	Timeout  time.Duration
	State    JobState
	Err      error
	Result   *scanpower.Comparison
	Wire     []byte // canonical comparison/v1 bytes (done jobs only)
	Created  time.Time
	Started  time.Time
	Finished time.Time
}

// Service is the job queue plus the shared Engine. Create with New; it is
// safe for concurrent use.
type Service struct {
	opts Options
	eng  *scanpower.Engine
	rec  *scanpower.Recorder
	reg  *telemetry.Registry
	run  Runner

	node string // display name: opts.Node, else opts.Self, else "local"
	// idPrefix is "job-" for a standalone daemon; cluster members fold a
	// hash of their own URL in ("job-<8 hex>-") so job IDs are unique
	// across the cluster — a forwarding node must be able to tell a
	// peer's job from a same-numbered local one when resolving traces.
	idPrefix string
	log      *slog.Logger
	started  time.Time
	build    telemetry.BuildInfo
	traces   *telemetry.TraceStore

	baseCtx  context.Context
	baseStop context.CancelFunc

	queue chan *Job
	wg    sync.WaitGroup // workers
	jobs  sync.WaitGroup // admitted, non-terminal jobs

	mu       sync.Mutex
	byID     map[string]*Job
	byKey    map[jobKey]*Job
	order    []string // admission order, for terminal-job eviction
	seq      int64
	inflight int
	draining bool
	stopped  bool

	store   *store.Store
	cluster *cluster

	queueDepth    *telemetry.Gauge
	inflightGauge *telemetry.Gauge
	submitted     *telemetry.Counter
	coalesced     *telemetry.Counter
	rejected      *telemetry.Counter
	storeHits     *telemetry.Counter
	storeMisses   *telemetry.Counter
	storePuts     *telemetry.Counter
	panics        *telemetry.Counter
	traceSegments *telemetry.Gauge
}

// New builds the service, wires the Engine's hooks into a Recorder over
// opts.Registry/opts.Trace, and starts the worker pool.
func New(opts Options) *Service {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.QueueSize < 0 {
		opts.QueueSize = 0
	}
	if opts.RetainJobs <= 0 {
		opts.RetainJobs = 1024
	}
	if isZeroConfig(opts.Cfg) {
		opts.Cfg = scanpower.DefaultConfig()
	}
	node := opts.Node
	if node == "" {
		node = opts.Self
	}
	if node == "" {
		node = "local"
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Service{
		opts:     opts,
		eng:      scanpower.NewEngine(opts.Cfg),
		rec:      scanpower.NewRecorder(opts.Registry, opts.Trace),
		reg:      opts.Registry,
		node:     node,
		log:      logger.With("node", node),
		started:  time.Now(),
		build:    telemetry.RegisterBuildInfo(opts.Registry),
		traces:   telemetry.NewTraceStore(opts.TraceCapacity),
		baseCtx:  ctx,
		baseStop: stop,
		queue:    make(chan *Job, opts.QueueSize),
		byID:     make(map[string]*Job),
		byKey:    make(map[jobKey]*Job),

		store: opts.Store,

		queueDepth:    opts.Registry.Gauge(MetricQueueDepth),
		inflightGauge: opts.Registry.Gauge(MetricInflight),
		submitted:     opts.Registry.Counter(MetricJobsSubmitted),
		coalesced:     opts.Registry.Counter(MetricJobsCoalesced),
		rejected:      opts.Registry.Counter(MetricJobsRejected),
		storeHits:     opts.Registry.Counter(MetricStoreHits),
		storeMisses:   opts.Registry.Counter(MetricStoreMisses),
		storePuts:     opts.Registry.Counter(MetricStorePuts),
		panics:        opts.Registry.Counter(MetricJobPanics),
		traceSegments: opts.Registry.Gauge(MetricTraceSegments),
	}
	s.idPrefix = "job-"
	if len(opts.Peers) > 0 && opts.Self != "" {
		s.cluster = newCluster(opts.Self, opts.Peers, opts.Registry)
		h := fnv.New32a()
		h.Write([]byte(opts.Self))
		s.idPrefix = fmt.Sprintf("job-%08x-", h.Sum32())
	}
	s.eng.Hooks = s.rec.Hooks()
	s.run = opts.Runner
	if s.run == nil {
		s.run = func(ctx context.Context, c *netlist.Circuit, cfg scanpower.Config) (*scanpower.Comparison, error) {
			return s.eng.CompareWith(ctx, c, cfg)
		}
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// isZeroConfig reports whether cfg is the (unusable) zero Config, so New
// can substitute the default. DefaultConfig always sets the shared
// leakage model, so a nil Leak identifies the zero value.
func isZeroConfig(cfg scanpower.Config) bool {
	return cfg.Leak == nil
}

// Engine exposes the shared Engine (for cache stats).
func (s *Service) Engine() *scanpower.Engine { return s.eng }

// Manifest assembles the run manifest recorded so far; call after Drain
// for balanced per-circuit records.
func (s *Service) Manifest(label string) *telemetry.Manifest {
	return s.rec.Manifest(label)
}

// SubmitError is returned by Submit with the admission outcome encoded.
type SubmitError struct {
	// Code is one of "queue_full" or "draining".
	Code string
	msg  string
}

// Error implements the error interface.
func (e *SubmitError) Error() string { return e.msg }

// errQueueFull and errDraining are the two admission rejections.
var (
	errQueueFull = &SubmitError{Code: "queue_full", msg: "service: job queue is full"}
	errDraining  = &SubmitError{Code: "draining", msg: "service: draining, not accepting jobs"}
)

// Submit admits a job for circuit c under the given overrides, or
// coalesces it onto an existing identical job, minting a fresh trace for
// the job. The returned bool reports whether the submission was
// coalesced. Rejections return a *SubmitError. The circuit must already
// be library-mapped.
func (s *Service) Submit(c *netlist.Circuit, timeout time.Duration) (*Job, bool, error) {
	return s.submit(c.Fingerprint(), c.Name, c, timeout, nil,
		telemetry.TraceContext{TraceID: telemetry.NewTraceID()})
}

// submit is the admission path behind Submit and POST /v1/jobs. fp is
// the circuit's fingerprint and name its display name; circ is the run's
// input, nil for a built-in circuit that runJob generates by name. Coalescing and the store read need only fp, so a
// named submit answered from either holds no circuit at all.
func (s *Service) submit(fp uint64, name string, circ *netlist.Circuit, timeout time.Duration, prof *power.ActivityProfile, tc telemetry.TraceContext) (*Job, bool, error) {
	if timeout <= 0 {
		timeout = s.opts.DefaultTimeout
	}
	if s.opts.MaxTimeout > 0 && (timeout == 0 || timeout > s.opts.MaxTimeout) {
		timeout = s.opts.MaxTimeout
	}
	key := jobKey{fp: fp, timeoutMS: timeout.Milliseconds(), activity: prof.Hash()}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopped {
		return nil, false, errDraining
	}
	if j, ok := s.byKey[key]; ok {
		s.coalesced.Inc()
		return j, true, nil
	}

	if s.store != nil {
		// Disk lookup outside the lock: verification reads the entry file.
		// The byKey miss above may be stale afterwards, so re-check before
		// inserting — a racing identical submit coalesces as usual.
		s.mu.Unlock()
		wire, _, hit := s.store.Get(key.storeKey())
		s.mu.Lock()
		if s.draining || s.stopped {
			return nil, false, errDraining
		}
		if j, ok := s.byKey[key]; ok {
			s.coalesced.Inc()
			return j, true, nil
		}
		if hit {
			if j, ok := s.storedJobLocked(name, timeout, key, wire, tc); ok {
				s.storeHits.Inc()
				s.log.Info("job served from store",
					"job_id", j.ID, "trace_id", j.traceID, "circuit", j.Circuit)
				return j, false, nil
			}
		}
		s.storeMisses.Inc()
	}

	s.seq++
	ctx := s.baseCtx
	var cancel context.CancelFunc
	if timeout > 0 {
		// The deadline covers queue wait too: an admission the queue
		// cannot serve in time fails like a slow run would.
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j := &Job{
		ID:       s.idPrefix + strconv.FormatInt(s.seq, 10),
		Circuit:  name,
		Timeout:  timeout,
		key:      key,
		circ:     circ,
		activity: prof,
		state:    StateQueued,
		created:  time.Now(),
		done:     make(chan struct{}),
		ctx:      ctx,
		cancel:   cancel,
	}
	select {
	case s.queue <- j:
	default:
		cancel()
		s.rejected.Inc()
		return nil, false, errQueueFull
	}
	s.jobs.Add(1)
	s.byID[j.ID] = j
	s.byKey[key] = j
	s.order = append(s.order, j.ID)
	s.submitted.Inc()
	s.queueDepth.Set(float64(len(s.queue)))
	s.attachTraceLocked(j, tc)
	s.evictLocked()
	s.log.Info("job admitted",
		"job_id", j.ID, "trace_id", j.traceID,
		"circuit", j.Circuit, "timeout_ms", j.Timeout.Milliseconds())
	return j, false, nil
}

// attachTraceLocked joins the job to the given trace context: it builds
// this node's segment, opens the root "job" span (parented to the remote
// span when the submit was forwarded here) and the "queue" child, and
// retains the segment in the trace ring. Callers hold s.mu.
func (s *Service) attachTraceLocked(j *Job, tc telemetry.TraceContext) {
	if tc.TraceID == "" {
		tc.TraceID = telemetry.NewTraceID()
	}
	j.traceID = tc.TraceID
	j.spans = telemetry.NewSpanBuilder(tc.TraceID, s.node)
	j.spans.SetJobID(j.ID)
	j.rootSpan = j.spans.StartSpan(tc.SpanID, "job", map[string]any{
		"circuit": j.Circuit, "measure": measureName,
	})
	j.quSpan = j.rootSpan.Start("queue", nil)
	s.traces.Add(j.spans)
	s.traceSegments.Set(float64(s.traces.Len()))
}

// storedJobLocked materializes a store hit as an already-done job: the
// stored wire bytes are kept verbatim (handleResult serves them
// unre-encoded, so the response is bit-identical to the original
// computation) and no Engine work happens. Callers hold s.mu. Returns
// ok=false if the stored bytes do not decode as a Comparison — the
// checksum guards integrity, not decodability, so this is a degenerate
// case treated as a miss.
func (s *Service) storedJobLocked(circuit string, timeout time.Duration, key jobKey, wire []byte, tc telemetry.TraceContext) (*Job, bool) {
	var cmp scanpower.Comparison
	if err := json.Unmarshal(wire, &cmp); err != nil {
		return nil, false
	}
	s.seq++
	now := time.Now()
	j := &Job{
		ID:       s.idPrefix + strconv.FormatInt(s.seq, 10),
		Circuit:  circuit,
		Timeout:  timeout,
		key:      key,
		state:    StateDone,
		result:   &cmp,
		wire:     wire,
		created:  now,
		finished: now,
		done:     make(chan struct{}),
		ctx:      s.baseCtx,
		cancel:   func() {},
	}
	close(j.done)
	s.byID[j.ID] = j
	s.byKey[key] = j
	s.order = append(s.order, j.ID)
	s.submitted.Inc()
	if tc.TraceID == "" {
		tc.TraceID = telemetry.NewTraceID()
	}
	j.traceID = tc.TraceID
	j.spans = telemetry.NewSpanBuilder(tc.TraceID, s.node)
	j.spans.SetJobID(j.ID)
	root := j.spans.StartSpan(tc.SpanID, "job", map[string]any{
		"circuit": j.Circuit, "measure": measureName,
	})
	hit := root.Start("store-hit", nil)
	hit.End(map[string]any{"bytes": len(wire)})
	root.End(map[string]any{"state": string(StateDone), "store_hit": true})
	s.traces.Add(j.spans)
	s.traceSegments.Set(float64(s.traces.Len()))
	s.reg.Counter(fmt.Sprintf(MetricJobsByState+`{state=%q}`, StateDone)).Inc()
	s.evictLocked()
	return j, true
}

// evictLocked drops the oldest terminal jobs beyond the retention bound.
// Callers hold s.mu.
func (s *Service) evictLocked() {
	excess := len(s.byID) - s.opts.RetainJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.byID[id]
		if excess > 0 && j != nil && j.state.Terminal() {
			delete(s.byID, id)
			if s.byKey[j.key] == j {
				delete(s.byKey, j.key)
			}
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Job returns the job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

// Snapshot returns a consistent copy of the job's state.
func (s *Service) Snapshot(j *Job) Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		ID: j.ID, TraceID: j.traceID, Circuit: j.Circuit, Timeout: j.Timeout,
		State: j.state, Err: j.err, Result: j.result, Wire: j.wire,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
}

// Done returns the channel closed when the job reaches a terminal state.
func (s *Service) Done(j *Job) <-chan struct{} { return j.done }

// Cancel aborts the job: queued jobs become canceled immediately, running
// jobs have their context cancelled and settle through the worker.
// Terminal jobs are unaffected. Reports whether the job was still live.
func (s *Service) Cancel(j *Job) bool {
	s.mu.Lock()
	if j.state.Terminal() {
		s.mu.Unlock()
		return false
	}
	if j.state == StateQueued {
		s.finishLocked(j, StateCanceled, nil, context.Canceled)
		s.mu.Unlock()
		j.cancel()
		return true
	}
	s.mu.Unlock()
	j.cancel() // worker observes ctx.Err() and finishes the job
	return true
}

// Stats is the healthz view of the service.
type Stats struct {
	QueueDepth    int
	QueueCapacity int
	Inflight      int
	Workers       int
	Jobs          int
	Draining      bool
	CacheHits     int64
	CacheMisses   int64
	// Store mirrors the persistent result store's counters; zero when no
	// store is configured.
	Store store.Stats
}

// Stats returns the current queue/inflight/job counts.
func (s *Service) Stats() Stats {
	hits, misses := s.eng.CacheStats()
	st := s.store.Stats() // nil-safe
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		Inflight:      s.inflight,
		Workers:       s.opts.Workers,
		Jobs:          len(s.byID),
		Draining:      s.draining,
		CacheHits:     hits,
		CacheMisses:   misses,
		Store:         st,
	}
}

// Benchmarks lists the built-in Table I circuits, sorted.
func (s *Service) Benchmarks() []string {
	names := scanpower.BenchmarkNames()
	sort.Strings(names)
	return names
}

// BenchmarkEntries lists the built-in Table I circuits with their
// published statistics, sorted by name. Gate and scan-cell counts come
// from the benchmark profiles (no circuit is generated); every Table I
// experiment uses a single scan chain.
func (s *Service) BenchmarkEntries() []api.Benchmark {
	entries := make([]api.Benchmark, 0, len(iscas.Profiles))
	for _, p := range iscas.Profiles {
		entries = append(entries, api.Benchmark{
			Name: p.Name, Gates: p.Gates, ScanCells: p.FFs, Chains: 1,
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries
}

// worker executes queued jobs until the queue is closed by Drain.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob moves one job from queued to a terminal state.
func (s *Service) runJob(j *Job) {
	s.mu.Lock()
	s.queueDepth.Set(float64(len(s.queue)))
	if j.state != StateQueued { // canceled while waiting
		s.mu.Unlock()
		return
	}
	if err := j.ctx.Err(); err != nil {
		// Deadline or shutdown hit before a worker got to it.
		s.finishLocked(j, failureState(err), nil, err)
		s.mu.Unlock()
		j.cancel()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.quSpan.End(nil)
	j.runSpan = j.rootSpan.Start("run", nil)
	s.inflight++
	s.inflightGauge.Set(float64(s.inflight))
	c, cfg := j.circ, s.opts.Cfg
	cfg.Activity = j.activity
	s.mu.Unlock()
	s.log.Debug("job running", "job_id", j.ID, "trace_id", j.traceID, "circuit", j.Circuit)

	cmp, err := s.runRecovered(j, c, cfg)

	// Marshal the result once: the same bytes become the HTTP response
	// body and the persisted store entry, so a later warm-start serve is
	// bit-identical to this run's.
	var wire []byte
	if err == nil {
		if wire, err = json.Marshal(cmp); err == nil && s.store != nil {
			meta := store.Meta{Circuit: j.Circuit, Elapsed: time.Since(j.started)}
			if perr := s.store.Put(j.key.storeKey(), meta, wire); perr == nil {
				s.storePuts.Inc()
			}
		}
	}

	s.mu.Lock()
	s.inflight--
	s.inflightGauge.Set(float64(s.inflight))
	// Cancel may have raced the finish; finishLocked keeps the first
	// terminal state and ignores later settles.
	switch {
	case err != nil:
		s.finishLocked(j, failureState(err), nil, err)
	default:
		j.wire = wire
		s.finishLocked(j, StateDone, cmp, nil)
	}
	s.mu.Unlock()
	j.cancel()
	// Count the job's circuit; its trace span closed when the Compare
	// returned, as an Engine.Run progress feed would count it.
	s.rec.FinishCircuit(j.Circuit)
}

// runRecovered runs the job behind a panic boundary: it generates a
// built-in circuit (c == nil) by name, then calls the Runner. A panic in
// either fails this job with an internal error, its stack goes to the log,
// and the daemon and its worker live on. A panic on an ATPG scheduler
// worker, which generation returns as a *atpg.WorkerPanicError, fails the
// job the same way. Each one counts in MetricJobPanics.
func (s *Service) runRecovered(j *Job, c *netlist.Circuit, cfg scanpower.Config) (cmp *scanpower.Comparison, err error) {
	defer func() {
		r, stack := recover(), []byte(nil)
		var wp *atpg.WorkerPanicError
		if r != nil {
			stack = debug.Stack()
		} else if errors.As(err, &wp) {
			r, stack = wp.Value, wp.Stack
		}
		if r != nil {
			s.panics.Inc()
			s.log.Error("job panicked", "job_id", j.ID, "trace_id", j.traceID,
				"circuit", j.Circuit, "panic", r, "stack", string(stack))
			cmp, err = nil, fmt.Errorf("internal error: %v", r)
		}
	}()
	if c == nil {
		if c, err = generateBenchmark(j.Circuit); err != nil {
			return nil, err
		}
	}
	return s.run(j.ctx, c, cfg)
}

// failureState maps a job error to canceled/failed: explicit cancellation
// reads as canceled, everything else — including a blown deadline — as
// failed, with the error kept on the job.
func failureState(err error) JobState {
	if errors.Is(err, context.Canceled) {
		return StateCanceled
	}
	return StateFailed
}

// finishLocked settles a job into a terminal state and closes its trace
// spans — the queue span may still be open (canceled while waiting), so
// every span is ended here and End's idempotence keeps the segment
// balanced no matter which path settled first. The job drops its circuit
// and activity profile: a retained terminal job keeps only what its
// responses read. Callers hold s.mu.
func (s *Service) finishLocked(j *Job, state JobState, cmp *scanpower.Comparison, err error) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.result = cmp
	j.err = err
	j.finished = time.Now()
	j.circ, j.activity = nil, nil
	if state != StateDone && s.byKey[j.key] == j {
		// Failed and canceled jobs leave the coalescing map so an
		// identical retry re-runs instead of inheriting the failure; done
		// jobs stay as served-from-cache entries.
		delete(s.byKey, j.key)
	}
	s.reg.Counter(fmt.Sprintf(MetricJobsByState+`{state=%q}`, state)).Inc()
	j.quSpan.End(map[string]any{"aborted": true})
	var runAttrs map[string]any
	rootAttrs := map[string]any{"state": string(state)}
	if err != nil {
		runAttrs = map[string]any{"error": err.Error()}
		rootAttrs["error"] = err.Error()
	}
	j.runSpan.End(runAttrs)
	j.rootSpan.End(rootAttrs)
	switch state {
	case StateFailed:
		s.log.Warn("job failed", "job_id", j.ID, "trace_id", j.traceID,
			"circuit", j.Circuit, "error", err)
	default:
		s.log.Info("job "+string(state), "job_id", j.ID, "trace_id", j.traceID,
			"circuit", j.Circuit, "elapsed_ms", j.finished.Sub(j.created).Milliseconds())
	}
	close(j.done)
	s.jobs.Done()
}

// Drain stops admission (new submits fail with a draining error), waits
// for queued and running jobs to settle — cancelling whatever is still
// live when ctx expires — then stops the workers and closes the trace
// span tree. Idempotent; subsequent calls wait for the first to finish.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()

	settled := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(settled)
	}()
	var err error
	select {
	case <-settled:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelAll()
		<-settled
	}

	if first {
		s.mu.Lock()
		s.stopped = true
		s.mu.Unlock()
		close(s.queue)
	}
	s.wg.Wait()
	s.rec.Close()
	return err
}

// cancelAll cancels every non-terminal job (queued ones settle here,
// running ones through their worker).
func (s *Service) cancelAll() {
	s.mu.Lock()
	var live []*Job
	for _, j := range s.byID {
		if !j.state.Terminal() {
			live = append(live, j)
		}
	}
	s.mu.Unlock()
	for _, j := range live {
		s.Cancel(j)
	}
}

// Close is Drain with immediate cancellation of everything in flight.
func (s *Service) Close() error {
	s.baseStop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Drain(ctx)
	if err == context.Canceled {
		return nil
	}
	return err
}
