package scanpower

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/probe"
	"repro/internal/telemetry"
)

// Metric families emitted by Recorder. Label sets: stage ∈ {atpg,
// traditional, input-control, proposed, enhanced, test-points}, outcome ∈
// {detected, untestable, aborted, skipped}, result ∈ {success, fail}.
const (
	MetricStageSeconds     = "scanpower_stage_seconds"    // histogram{stage}
	MetricSubStageSeconds  = "scanpower_substage_seconds" // histogram{stage,sub}
	MetricCacheHits        = "scanpower_atpg_cache_hits_total"
	MetricCacheMisses      = "scanpower_atpg_cache_misses_total"
	MetricCacheEvictions   = "scanpower_atpg_cache_evictions_total"
	MetricCacheBytes       = "scanpower_atpg_cache_bytes"   // gauge
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

// Recorder bridges the Engine's event stream to the telemetry substrate:
// it aggregates the events into registry metrics, emits the run → circuit
// → stage → sub-stage span hierarchy to a TraceWriter, and accumulates
// the per-circuit stage record a run manifest embeds. It keys every
// record by the circuit's probe scope, one per Compare, so concurrent
// runs of same-named circuits stay apart. Either sink may be nil: a nil
// registry drops metrics, a nil trace writer drops spans, and the
// manifest record is kept regardless.
//
// Use it by attaching its Hooks to an Engine, merged with any others:
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
	cacheEvictions         *telemetry.Counter
	cacheBytes             *telemetry.Gauge
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
	circuits map[*probe.Scope]*circuitRecord // in flight, by circuit scope
	done     []telemetry.CircuitManifest
}

// circuitRecord is the in-flight state of one circuit scope — one Compare,
// so two concurrent runs of same-named circuits never share a record: its
// open span, the open stage spans by stage scope, and the accumulating
// manifest entry.
type circuitRecord struct {
	span     *telemetry.Span
	stages   map[*probe.Scope]*telemetry.Span
	manifest telemetry.CircuitManifest
}

// NewRecorder returns a Recorder feeding reg and tw (either may be nil)
// and opens the root "run" span.
func NewRecorder(reg *telemetry.Registry, tw *telemetry.TraceWriter) *Recorder {
	r := &Recorder{
		reg:   reg,
		tw:    tw,
		start: time.Now(),

		cacheHits:      reg.Counter(MetricCacheHits),
		cacheMisses:    reg.Counter(MetricCacheMisses),
		cacheEvictions: reg.Counter(MetricCacheEvictions),
		cacheBytes:     reg.Gauge(MetricCacheBytes),
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

		circuits: make(map[*probe.Scope]*circuitRecord),
	}
	r.run = tw.Start("run", nil)
	return r
}

// Hooks returns the hook set feeding this Recorder; merge it with any
// other hooks via MergeHooks.
func (r *Recorder) Hooks() Hooks {
	return Hooks{sink: r.emit}
}

// emit folds one event into the metrics, the span tree and the manifest.
func (r *Recorder) emit(sc *probe.Scope, ev probe.Event) {
	switch ev.Kind {
	case probe.StageStart:
		r.mu.Lock()
		cr := r.circuit(sc)
		cr.stages[sc] = cr.span.Start(sc.Stage, nil)
		r.mu.Unlock()
		return
	case probe.StageDone:
		r.stageDone(sc, ev)
		return
	case probe.Progress:
		r.circuitsDone.Inc()
		return
	case probe.Closed:
		r.mu.Lock()
		r.finishLocked(sc.Root())
		r.mu.Unlock()
		return
	case probe.PodemFault:
		if c, ok := r.podemByOutcome[ev.Outcome]; ok {
			c.Inc()
		}
		r.podemBacktracks.Observe(float64(ev.Backtracks))
		return
	case probe.Justify:
		if ev.OK {
			r.justifyOK.Inc()
		} else {
			r.justifyFail.Inc()
		}
		r.justifyBacktracks.Observe(float64(ev.Backtracks))
		return
	case probe.Samples:
		r.obsSamples.Add(int64(ev.N))
		return
	case probe.Pattern:
		r.patterns.Inc()
		return
	case probe.CacheFill:
		r.cacheEvictions.Add(int64(ev.N))
		r.cacheBytes.Add(float64(ev.Bytes))
		return
	case probe.SubStage:
		r.reg.Histogram(fmt.Sprintf(MetricSubStageSeconds+`{stage=%q,sub=%q}`, sc.Stage, ev.Name), nil).
			Observe(ev.Elapsed.Seconds())
	case probe.MeasureBatch:
		r.packedLanes.Add(int64(ev.N))
	case probe.MCBatch:
		r.mcLanes.Add(int64(ev.N))
	case probe.FaultSimBatch:
		r.faultSimLanes.Add(int64(ev.N))
	}
	if r.tw == nil {
		return
	}

	// The rest become one completed span each under the owning stage.
	name, attrs := ev.Name, map[string]any{"stage": sc.Stage}
	switch ev.Kind {
	case probe.SubStage:
	case probe.MeasureBatch:
		name, attrs["lanes"] = "measure-batch", ev.N
	case probe.MCBatch:
		name, attrs["kind"], attrs["lanes"] = "mc-batch", ev.Name, ev.N
	case probe.FaultSimBatch:
		name, attrs["kind"], attrs["lanes"] = "faultsim-batch", ev.Name, ev.N
	case probe.PodemChunk:
		name, attrs["start"], attrs["faults"] = "podem-chunk", ev.Start, ev.N
	default:
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cr := r.circuit(sc)
	parent := cr.stages[sc]
	if parent == nil {
		parent = cr.span
	}
	parent.Completed(name, ev.Elapsed, attrs)
}

// circuit returns (creating on first touch) the in-flight record of sc's
// circuit scope, opening the circuit span lazily under the run span.
// Callers hold r.mu.
func (r *Recorder) circuit(sc *probe.Scope) *circuitRecord {
	cr, ok := r.circuits[sc.Root()]
	if !ok {
		cr = &circuitRecord{
			span:   r.run.Start(sc.Circuit, map[string]any{"kind": "circuit"}),
			stages: make(map[*probe.Scope]*telemetry.Span),
		}
		cr.manifest.Name = sc.Circuit
		r.circuits[sc.Root()] = cr
	}
	return cr
}

func (r *Recorder) stageDone(sc *probe.Scope, ev probe.Event) {
	r.reg.Histogram(fmt.Sprintf(MetricStageSeconds+`{stage=%q}`, sc.Stage), nil).
		Observe(ev.Elapsed.Seconds())
	if sc.Stage == StageATPG {
		// A miss is a generation that produced patterns, as
		// Engine.CacheStats counts it: a failed or cancelled one is not.
		if ev.CacheHit {
			r.cacheHits.Inc()
		} else if !ev.Failed {
			r.cacheMisses.Inc()
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	cr := r.circuit(sc)
	info := StageInfo{Patterns: ev.Patterns, Backtracks: ev.Backtracks, CacheHit: ev.CacheHit, Failed: ev.Failed}
	if s := cr.stages[sc]; s != nil {
		delete(cr.stages, sc)
		s.End(stageAttrs(info))
	}
	cr.manifest.Stages = append(cr.manifest.Stages, telemetry.StageManifest{
		Stage:      sc.Stage,
		WallNS:     ev.Elapsed.Nanoseconds(),
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

// FinishCircuit counts one completed circuit. Engine runs count through
// the progress feed; long-running callers that invoke Engine.Compare
// directly per job — the scanpowerd service — call it after each job. The
// circuit's span and manifest entry are already closed when its Compare
// returns.
func (r *Recorder) FinishCircuit(string) {
	r.circuitsDone.Inc()
}

// finishLocked closes the record of circuit scope root, if one is open.
// Callers hold r.mu.
func (r *Recorder) finishLocked(root *probe.Scope) {
	cr, ok := r.circuits[root]
	if !ok {
		return
	}
	delete(r.circuits, root)
	for _, s := range cr.stages { // unbalanced stage spans (cancelled run)
		s.End(map[string]any{"aborted": true})
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
	for _, cr := range r.circuits {
		if cr.manifest.Name == circuit {
			cr.manifest.Err = err.Error()
			return
		}
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
	for root := range r.circuits {
		r.finishLocked(root)
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
