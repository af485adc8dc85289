package scanpower

import (
	"fmt"
	"time"

	"sync"

	"repro/internal/telemetry"
)

// Metric families emitted by Recorder. Label sets: stage ∈ {atpg,
// traditional, input-control, proposed}, outcome ∈ {detected, untestable,
// aborted, skipped}, result ∈ {success, fail}.
const (
	MetricStageSeconds     = "scanpower_stage_seconds"    // histogram{stage}
	MetricSubStageSeconds  = "scanpower_substage_seconds" // histogram{stage,sub}
	MetricCacheHits        = "scanpower_atpg_cache_hits_total"
	MetricCacheMisses      = "scanpower_atpg_cache_misses_total"
	MetricPodemFaults      = "scanpower_podem_faults_total" // counter{outcome}
	MetricPodemBacktracks  = "scanpower_podem_backtracks"   // histogram
	MetricJustify          = "scanpower_justify_total"      // counter{result}
	MetricJustifyBacktrack = "scanpower_justify_backtracks" // histogram
	MetricObsSamples       = "scanpower_obs_samples_total"
	MetricPatterns         = "scanpower_patterns_measured_total"
	MetricCircuitsDone     = "scanpower_circuits_done_total"
	// MetricPackedLanes counts scan cycles evaluated by the bit-parallel
	// measurement kernel (64 per full batch); serial backends leave it 0.
	MetricPackedLanes = "scanpower_power_packed_lanes_total"
	// MetricATPGFaultSimLanes counts pattern lanes evaluated by the
	// packed fault-dropping passes of the ATPG stage ("drop" buffer
	// flushes plus "compact" compaction chunks).
	MetricATPGFaultSimLanes = "scanpower_atpg_faultsim_lanes_total"
	// MetricMCLanes counts Monte-Carlo lanes (observability vectors plus
	// fill trials) evaluated by the packed MC kernels inside the structure
	// builds.
	MetricMCLanes = "scanpower_mc_packed_lanes_total"
)

// Recorder bridges Hooks to the telemetry substrate: it aggregates the
// callback stream into registry metrics, emits the run → circuit → stage
// → sub-stage span hierarchy to a TraceWriter, and accumulates the
// per-circuit stage record a run manifest embeds. Either sink may be nil:
// a nil registry drops metrics, a nil trace writer drops spans, and the
// manifest record is kept regardless.
//
// Use it by merging its Hooks into an Engine (or compare call):
//
//	rec := scanpower.NewRecorder(reg, tw)
//	eng.Hooks = scanpower.MergeHooks(progressHooks, rec.Hooks())
//	... run ...
//	rec.Close()
//	m := rec.Manifest("tableone")
//
// All methods are safe for concurrent use by Engine workers.
type Recorder struct {
	reg   *telemetry.Registry
	tw    *telemetry.TraceWriter
	run   *telemetry.Span
	start time.Time

	// Pre-resolved hot-path handles (single atomic op per event).
	cacheHits, cacheMisses *telemetry.Counter
	podemByOutcome         map[string]*telemetry.Counter
	podemBacktracks        *telemetry.Histogram
	justifyOK, justifyFail *telemetry.Counter
	justifyBacktracks      *telemetry.Histogram
	obsSamples             *telemetry.Counter
	patterns               *telemetry.Counter
	circuitsDone           *telemetry.Counter
	packedLanes            *telemetry.Counter
	mcLanes                *telemetry.Counter
	faultSimLanes          *telemetry.Counter

	mu       sync.Mutex
	circuits map[string]*circuitRecord
	done     []telemetry.CircuitManifest
}

// circuitRecord is the in-flight state of one circuit: its open span, the
// stacked open stage spans (keyed by stage name — pairs always balance,
// but ATPG may run under another circuit's worker via the shared cache),
// and the accumulating manifest entry.
type circuitRecord struct {
	span     *telemetry.Span
	stages   map[string][]*telemetry.Span
	manifest telemetry.CircuitManifest
}

// NewRecorder returns a Recorder feeding reg and tw (either may be nil)
// and opens the root "run" span.
func NewRecorder(reg *telemetry.Registry, tw *telemetry.TraceWriter) *Recorder {
	r := &Recorder{
		reg:   reg,
		tw:    tw,
		start: time.Now(),

		cacheHits:   reg.Counter(MetricCacheHits),
		cacheMisses: reg.Counter(MetricCacheMisses),
		podemByOutcome: map[string]*telemetry.Counter{
			"detected":   reg.Counter(MetricPodemFaults + `{outcome="detected"}`),
			"untestable": reg.Counter(MetricPodemFaults + `{outcome="untestable"}`),
			"aborted":    reg.Counter(MetricPodemFaults + `{outcome="aborted"}`),
			"skipped":    reg.Counter(MetricPodemFaults + `{outcome="skipped"}`),
		},
		podemBacktracks:   reg.Histogram(MetricPodemBacktracks, telemetry.DefCountBuckets),
		justifyOK:         reg.Counter(MetricJustify + `{result="success"}`),
		justifyFail:       reg.Counter(MetricJustify + `{result="fail"}`),
		justifyBacktracks: reg.Histogram(MetricJustifyBacktrack, telemetry.DefCountBuckets),
		obsSamples:        reg.Counter(MetricObsSamples),
		patterns:          reg.Counter(MetricPatterns),
		circuitsDone:      reg.Counter(MetricCircuitsDone),
		packedLanes:       reg.Counter(MetricPackedLanes),
		mcLanes:           reg.Counter(MetricMCLanes),
		faultSimLanes:     reg.Counter(MetricATPGFaultSimLanes),

		circuits: make(map[string]*circuitRecord),
	}
	r.run = tw.Start("run", nil)
	return r
}

// Hooks returns the callback set feeding this Recorder; merge it with any
// other hooks via MergeHooks.
func (r *Recorder) Hooks() Hooks {
	return Hooks{
		OnStageStart:    r.onStageStart,
		OnStageDone:     r.onStageDone,
		OnProgress:      r.onProgress,
		OnSubStage:      r.onSubStage,
		OnPodemFault:    r.onPodemFault,
		OnJustify:       r.onJustify,
		OnObsSamples:    r.onObsSamples,
		OnPattern:       r.onPattern,
		OnMeasureBatch:  r.onMeasureBatch,
		OnMCBatch:       r.onMCBatch,
		OnFaultSimBatch: r.onFaultSimBatch,
		OnPodemChunk:    r.onPodemChunk,
	}
}

// circuit returns (creating on first touch) the in-flight record, opening
// the circuit span lazily under the run span. Callers hold r.mu.
func (r *Recorder) circuit(name string) *circuitRecord {
	cr, ok := r.circuits[name]
	if !ok {
		cr = &circuitRecord{
			span:   r.run.Start(name, map[string]any{"kind": "circuit"}),
			stages: make(map[string][]*telemetry.Span),
		}
		cr.manifest.Name = name
		r.circuits[name] = cr
	}
	return cr
}

func (r *Recorder) onStageStart(circuit, stage string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cr := r.circuit(circuit)
	s := cr.span.Start(stage, nil)
	cr.stages[stage] = append(cr.stages[stage], s)
}

func (r *Recorder) onStageDone(circuit, stage string, elapsed time.Duration, info StageInfo) {
	r.reg.Histogram(fmt.Sprintf(MetricStageSeconds+`{stage=%q}`, stage), nil).
		Observe(elapsed.Seconds())
	if stage == StageATPG {
		if info.CacheHit {
			r.cacheHits.Inc()
		} else {
			r.cacheMisses.Inc()
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	cr := r.circuit(circuit)
	if st := cr.stages[stage]; len(st) > 0 {
		s := st[len(st)-1]
		cr.stages[stage] = st[:len(st)-1]
		s.End(stageAttrs(info))
	}
	cr.manifest.Stages = append(cr.manifest.Stages, telemetry.StageManifest{
		Stage:      stage,
		WallNS:     elapsed.Nanoseconds(),
		Patterns:   info.Patterns,
		Backtracks: info.Backtracks,
		CacheHit:   info.CacheHit,
	})
}

func stageAttrs(info StageInfo) map[string]any {
	attrs := map[string]any{"patterns": info.Patterns}
	if info.Backtracks > 0 {
		attrs["backtracks"] = info.Backtracks
	}
	if info.CacheHit {
		attrs["cache_hit"] = true
	}
	if info.Failed {
		attrs["failed"] = true
	}
	return attrs
}

// onMeasureBatch counts bit-parallel lanes and, when tracing, emits one
// completed span per packed batch under the owning stage span.
func (r *Recorder) onMeasureBatch(circuit, stage string, lanes int, elapsed time.Duration) {
	r.packedLanes.Add(int64(lanes))
	if r.tw == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cr := r.circuit(circuit)
	parent := cr.span
	if st := cr.stages[stage]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	parent.Completed("measure-batch", elapsed, map[string]any{"stage": stage, "lanes": lanes})
}

// onMCBatch counts packed Monte-Carlo lanes and, when tracing, emits one
// completed span per batch under the owning stage span, tagged with the
// kernel kind ("obs" or "fill").
func (r *Recorder) onMCBatch(circuit, stage, kind string, lanes int, elapsed time.Duration) {
	r.mcLanes.Add(int64(lanes))
	if r.tw == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cr := r.circuit(circuit)
	parent := cr.span
	if st := cr.stages[stage]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	parent.Completed("mc-batch", elapsed, map[string]any{
		"stage": stage, "kind": kind, "lanes": lanes,
	})
}

// onFaultSimBatch counts packed fault-simulation lanes and, when tracing,
// emits one completed span per fault-dropping pass under the ATPG stage
// span, tagged with the pass kind ("drop" or "compact").
func (r *Recorder) onFaultSimBatch(circuit, kind string, lanes int, elapsed time.Duration) {
	r.faultSimLanes.Add(int64(lanes))
	if r.tw == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cr := r.circuit(circuit)
	parent := cr.span
	if st := cr.stages[StageATPG]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	parent.Completed("faultsim-batch", elapsed, map[string]any{
		"stage": StageATPG, "kind": kind, "lanes": lanes,
	})
}

// onPodemChunk emits one completed span per fault-parallel PODEM chunk
// under the ATPG stage span. It arrives concurrently from scheduler
// workers; r.mu makes it safe like every other handler.
func (r *Recorder) onPodemChunk(circuit string, start, n int, elapsed time.Duration) {
	if r.tw == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cr := r.circuit(circuit)
	parent := cr.span
	if st := cr.stages[StageATPG]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	parent.Completed("podem-chunk", elapsed, map[string]any{
		"stage": StageATPG, "start": start, "faults": n,
	})
}

func (r *Recorder) onSubStage(circuit, stage, sub string, elapsed time.Duration, info StageInfo) {
	r.reg.Histogram(fmt.Sprintf(MetricSubStageSeconds+`{stage=%q,sub=%q}`, stage, sub), nil).
		Observe(elapsed.Seconds())
	if r.tw == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cr := r.circuit(circuit)
	parent := cr.span
	if st := cr.stages[stage]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	parent.Completed(sub, elapsed, map[string]any{"stage": stage})
}

func (r *Recorder) onPodemFault(_ string, info PodemFaultInfo) {
	if c, ok := r.podemByOutcome[info.Outcome]; ok {
		c.Inc()
	}
	r.podemBacktracks.Observe(float64(info.Backtracks))
}

func (r *Recorder) onJustify(_ string, info JustifyInfo) {
	if info.Success {
		r.justifyOK.Inc()
	} else {
		r.justifyFail.Inc()
	}
	r.justifyBacktracks.Observe(float64(info.Backtracks))
}

func (r *Recorder) onObsSamples(_ string, samples int) {
	r.obsSamples.Add(int64(samples))
}

func (r *Recorder) onPattern(_, _ string, _ int) {
	r.patterns.Inc()
}

// onProgress closes the circuit's span and moves its stage record to the
// finished list. Circuits run outside an Engine (no progress feed) are
// flushed by Close instead.
func (r *Recorder) onProgress(circuit string, _, _ int) {
	r.FinishCircuit(circuit)
}

// FinishCircuit closes the named circuit's open span and moves its stage
// record to the finished manifest list. Engine runs do this through the
// progress feed; long-running callers that invoke Engine.Compare directly
// per job — the scanpowerd service — call it after each job so the span
// tree stays balanced without waiting for Close. Unknown names are a
// no-op for the span but still count a completed circuit.
func (r *Recorder) FinishCircuit(circuit string) {
	r.circuitsDone.Inc()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finishLocked(circuit)
}

func (r *Recorder) finishLocked(circuit string) {
	cr, ok := r.circuits[circuit]
	if !ok {
		return
	}
	delete(r.circuits, circuit)
	for _, st := range cr.stages { // unbalanced stage spans (cancelled run)
		for _, s := range st {
			s.End(map[string]any{"aborted": true})
		}
	}
	cr.span.End(map[string]any{"stages": len(cr.manifest.Stages)})
	r.done = append(r.done, cr.manifest)
}

// CircuitError records a per-circuit failure in the manifest. Call it for
// Engine Results carrying an error (the hook feed has no error channel).
func (r *Recorder) CircuitError(circuit string, err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cr, ok := r.circuits[circuit]; ok {
		cr.manifest.Err = err.Error()
		return
	}
	for i := range r.done {
		if r.done[i].Name == circuit {
			r.done[i].Err = err.Error()
			return
		}
	}
	r.done = append(r.done, telemetry.CircuitManifest{Name: circuit, Err: err.Error()})
}

// Close flushes any circuits still open (runs without a progress feed, or
// cancelled mid-circuit) and ends the run span. Idempotent.
func (r *Recorder) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name := range r.circuits {
		r.finishLocked(name)
	}
	if r.run != nil {
		r.run.End(map[string]any{"circuits": len(r.done)})
		r.run = nil
	}
}

// Manifest assembles the run manifest from everything recorded so far:
// environment stamp, per-circuit stage timings in completion order, and
// the registry snapshot. Call after Close (open circuits are not
// included). Config and Results are left for the caller to attach.
func (r *Recorder) Manifest(label string) *telemetry.Manifest {
	m := telemetry.NewManifest(label)
	m.WallNS = time.Since(r.start).Nanoseconds()
	m.Counters = r.reg.Snapshot()
	r.mu.Lock()
	m.Circuits = append([]telemetry.CircuitManifest(nil), r.done...)
	r.mu.Unlock()
	return m
}
