package scanpower

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/power"
)

// Stage names reported through Hooks.
const (
	// StageATPG is pattern generation (PODEM + fault simulation) — the
	// dominant cost and the stage the Engine memoizes.
	StageATPG = "atpg"
	// StageTraditional, StageInputControl and StageProposed are the three
	// structure build+measure stages of one Table I row.
	StageTraditional  = "traditional"
	StageInputControl = "input-control"
	StageProposed     = "proposed"
)

// StageInfo carries per-stage counters to Hooks.OnStageDone.
type StageInfo struct {
	// Patterns is the test-set size after the stage (ATPG: generated or
	// cache-served; measurement stages: applied).
	Patterns int
	// Backtracks is the total PODEM backtrack count (ATPG stage only;
	// zero when the stage was served from the cache).
	Backtracks int
	// CacheHit is true when the ATPG stage performed no generation work
	// because the pattern cache already held the result.
	CacheHit bool
	// Failed is true when the stage ended with an error (including
	// cancellation). Failed stages still emit OnStageDone so start/done
	// pairs — and any spans built on them — always balance.
	Failed bool
}

// PodemFaultInfo describes one deterministic PODEM attempt to
// Hooks.OnPodemFault.
type PodemFaultInfo struct {
	// Fault names the target stuck-at fault, e.g. "G17/SA0".
	Fault string
	// Outcome is "detected", "untestable", "aborted" or "skipped" (the
	// MaxPodemFaults cap left the fault unattempted).
	Outcome string
	// Backtracks is the search effort this fault cost.
	Backtracks int
}

// JustifyInfo describes one justification attempt of the transition
// blocking search to Hooks.OnJustify.
type JustifyInfo struct {
	// Success reports whether a blocking assignment was committed.
	Success bool
	// Backtracks is the branch-and-bound effort spent.
	Backtracks int
}

// Hooks observes an Engine (or a context-first package function) as it
// works. Any field may be nil; callbacks must be safe for concurrent use
// when the Engine runs with more than one worker. The stage callbacks are
// coarse (four per circuit); the remaining callbacks are the deep
// instrumentation feed of the telemetry layer (see Recorder) and fire at
// per-fault / per-pattern granularity, so keep them cheap.
type Hooks struct {
	// OnStageStart fires when a stage begins on a circuit. Cache-served
	// ATPG stages fire it too, immediately followed by their OnStageDone
	// with CacheHit set, so start/done pairs always balance.
	OnStageStart func(circuit, stage string)
	// OnStageDone fires when a stage completes, with its wall time and
	// counters. Cache-served ATPG stages report ~zero elapsed time and
	// CacheHit set.
	OnStageDone func(circuit, stage string, elapsed time.Duration, info StageInfo)
	// OnProgress fires after each circuit of an Engine run completes
	// (successfully or not), with the running done count.
	OnProgress func(circuit string, done, total int)

	// OnSubStage fires when an instrumented sub-stage completes: ATPG's
	// "random"/"podem"/"compact" phases and the structure builds'
	// "observability"/"blocking"/"fill"/"reorder" phases.
	OnSubStage func(circuit, stage, sub string, elapsed time.Duration, info StageInfo)
	// OnPodemFault fires after every deterministic-phase PODEM fault
	// during generation (never for cache-served stages).
	OnPodemFault func(circuit string, info PodemFaultInfo)
	// OnJustify fires after every justification attempt of the
	// input-control and proposed structure builds.
	OnJustify func(circuit string, info JustifyInfo)
	// OnObsSamples fires as the Monte-Carlo leakage-observability estimate
	// progresses, with the vectors simulated since the previous call.
	OnObsSamples func(circuit string, samples int)
	// OnPattern fires after each pattern measured during a measurement
	// stage, with the zero-based pattern index.
	OnPattern func(circuit, stage string, index int)
	// OnMeasureBatch fires after the packed measurement kernel evaluates
	// one batch of bit-parallel lanes, with the number of scan cycles the
	// batch carried and its wall time.
	OnMeasureBatch func(circuit, stage string, lanes int, elapsed time.Duration)
	// OnMCBatch fires after a packed Monte-Carlo kernel inside a structure
	// build evaluates one 256-lane batch: kind is "obs" (observability
	// vectors) or "fill" (fill trials), lanes the vectors/trials carried,
	// elapsed the batch's evaluation wall time.
	OnMCBatch func(circuit, stage, kind string, lanes int, elapsed time.Duration)
	// OnFaultSimBatch fires after each packed fault-dropping pass of the
	// ATPG stage: kind is "drop" (deterministic-phase buffer flush) or
	// "compact" (static compaction), lanes the pattern lanes the pass
	// simulated (never for cache-served stages).
	OnFaultSimBatch func(circuit, kind string, lanes int, elapsed time.Duration)
	// OnPodemChunk fires after a fault-parallel ATPG scheduler worker
	// finishes one chunk of the residual fault queue (only when
	// Config.ATPG.Workers > 1). It is invoked concurrently from worker
	// goroutines; implementations must be goroutine-safe.
	OnPodemChunk func(circuit string, start, n int, elapsed time.Duration)
}

// empty reports whether no callback is set (func fields make Hooks
// non-comparable, so this stands in for == Hooks{}).
func (h Hooks) empty() bool {
	return h.OnStageStart == nil && h.OnStageDone == nil && h.OnProgress == nil &&
		h.OnSubStage == nil && h.OnPodemFault == nil && h.OnJustify == nil &&
		h.OnObsSamples == nil && h.OnPattern == nil && h.OnMeasureBatch == nil &&
		h.OnMCBatch == nil && h.OnFaultSimBatch == nil && h.OnPodemChunk == nil
}

func (h Hooks) stageStart(circuit, stage string) {
	if h.OnStageStart != nil {
		h.OnStageStart(circuit, stage)
	}
}

func (h Hooks) stageDone(circuit, stage string, elapsed time.Duration, info StageInfo) {
	if h.OnStageDone != nil {
		h.OnStageDone(circuit, stage, elapsed, info)
	}
}

func (h Hooks) progress(circuit string, done, total int) {
	if h.OnProgress != nil {
		h.OnProgress(circuit, done, total)
	}
}

// atpgObserver adapts the deep hooks to an atpg.Observer bound to one
// circuit. With none of the relevant hooks set it returns the zero
// Observer, which adds no work to generation.
func (h Hooks) atpgObserver(c *netlist.Circuit) atpg.Observer {
	var ob atpg.Observer
	if h.OnPodemFault != nil {
		hook := h.OnPodemFault
		ob.OnPodemFault = func(f atpg.Fault, outcome atpg.PodemOutcome, backtracks int) {
			hook(c.Name, PodemFaultInfo{
				Fault:      f.Name(c),
				Outcome:    outcome.String(),
				Backtracks: backtracks,
			})
		}
	}
	if h.OnSubStage != nil {
		hook := h.OnSubStage
		ob.OnPhase = func(phase string, elapsed time.Duration, patterns int) {
			hook(c.Name, StageATPG, phase, elapsed, StageInfo{Patterns: patterns})
		}
	}
	if h.OnFaultSimBatch != nil {
		hook := h.OnFaultSimBatch
		ob.OnFaultSimBatch = func(kind string, lanes int, elapsed time.Duration) {
			hook(c.Name, kind, lanes, elapsed)
		}
	}
	if h.OnPodemChunk != nil {
		hook := h.OnPodemChunk
		ob.OnPodemChunk = func(start, n int, elapsed time.Duration) {
			hook(c.Name, start, n, elapsed)
		}
	}
	return ob
}

// coreObserver adapts the deep hooks to a core.Observer bound to one
// circuit's structure-build stage.
func (h Hooks) coreObserver(circuit, stage string) core.Observer {
	var ob core.Observer
	if h.OnJustify != nil {
		hook := h.OnJustify
		ob.OnJustify = func(_ netlist.NetID, success bool, backtracks int) {
			hook(circuit, JustifyInfo{Success: success, Backtracks: backtracks})
		}
	}
	if h.OnObsSamples != nil {
		hook := h.OnObsSamples
		ob.OnObsSamples = func(n int) { hook(circuit, n) }
	}
	if h.OnMCBatch != nil {
		hook := h.OnMCBatch
		ob.OnMCBatch = func(kind string, lanes int, elapsed time.Duration) {
			hook(circuit, stage, kind, lanes, elapsed)
		}
	}
	if h.OnSubStage != nil {
		hook := h.OnSubStage
		ob.OnPhase = func(phase string, elapsed time.Duration) {
			hook(circuit, stage, phase, elapsed, StageInfo{})
		}
	}
	return ob
}

// measureOptions returns the per-stage measurement options, wiring the
// per-pattern hook when set.
func (h Hooks) measureOptions(ctx context.Context, circuit, stage string) power.MeasureOptions {
	m := power.MeasureOptions{Ctx: ctx}
	if h.OnPattern != nil {
		hook := h.OnPattern
		m.OnPattern = func(index int) { hook(circuit, stage, index) }
	}
	if h.OnMeasureBatch != nil {
		hook := h.OnMeasureBatch
		m.OnBatch = func(lanes int, elapsed time.Duration) { hook(circuit, stage, lanes, elapsed) }
	}
	return m
}

// MergeHooks chains any number of hook sets: every non-nil callback of
// every set fires, in argument order. Use it to combine a progress printer
// with a telemetry Recorder.
func MergeHooks(hs ...Hooks) Hooks {
	var live []Hooks
	for _, h := range hs {
		if !h.empty() {
			live = append(live, h)
		}
	}
	if len(live) == 1 {
		return live[0]
	}
	var out Hooks
	for _, h := range live {
		h := h
		if h.OnStageStart != nil {
			prev := out.OnStageStart
			next := h.OnStageStart
			out.OnStageStart = func(circuit, stage string) {
				if prev != nil {
					prev(circuit, stage)
				}
				next(circuit, stage)
			}
		}
		if h.OnStageDone != nil {
			prev := out.OnStageDone
			next := h.OnStageDone
			out.OnStageDone = func(circuit, stage string, elapsed time.Duration, info StageInfo) {
				if prev != nil {
					prev(circuit, stage, elapsed, info)
				}
				next(circuit, stage, elapsed, info)
			}
		}
		if h.OnProgress != nil {
			prev := out.OnProgress
			next := h.OnProgress
			out.OnProgress = func(circuit string, done, total int) {
				if prev != nil {
					prev(circuit, done, total)
				}
				next(circuit, done, total)
			}
		}
		if h.OnSubStage != nil {
			prev := out.OnSubStage
			next := h.OnSubStage
			out.OnSubStage = func(circuit, stage, sub string, elapsed time.Duration, info StageInfo) {
				if prev != nil {
					prev(circuit, stage, sub, elapsed, info)
				}
				next(circuit, stage, sub, elapsed, info)
			}
		}
		if h.OnPodemFault != nil {
			prev := out.OnPodemFault
			next := h.OnPodemFault
			out.OnPodemFault = func(circuit string, info PodemFaultInfo) {
				if prev != nil {
					prev(circuit, info)
				}
				next(circuit, info)
			}
		}
		if h.OnJustify != nil {
			prev := out.OnJustify
			next := h.OnJustify
			out.OnJustify = func(circuit string, info JustifyInfo) {
				if prev != nil {
					prev(circuit, info)
				}
				next(circuit, info)
			}
		}
		if h.OnObsSamples != nil {
			prev := out.OnObsSamples
			next := h.OnObsSamples
			out.OnObsSamples = func(circuit string, samples int) {
				if prev != nil {
					prev(circuit, samples)
				}
				next(circuit, samples)
			}
		}
		if h.OnPattern != nil {
			prev := out.OnPattern
			next := h.OnPattern
			out.OnPattern = func(circuit, stage string, index int) {
				if prev != nil {
					prev(circuit, stage, index)
				}
				next(circuit, stage, index)
			}
		}
		if h.OnMeasureBatch != nil {
			prev := out.OnMeasureBatch
			next := h.OnMeasureBatch
			out.OnMeasureBatch = func(circuit, stage string, lanes int, elapsed time.Duration) {
				if prev != nil {
					prev(circuit, stage, lanes, elapsed)
				}
				next(circuit, stage, lanes, elapsed)
			}
		}
		if h.OnMCBatch != nil {
			prev := out.OnMCBatch
			next := h.OnMCBatch
			out.OnMCBatch = func(circuit, stage, kind string, lanes int, elapsed time.Duration) {
				if prev != nil {
					prev(circuit, stage, kind, lanes, elapsed)
				}
				next(circuit, stage, kind, lanes, elapsed)
			}
		}
		if h.OnFaultSimBatch != nil {
			prev := out.OnFaultSimBatch
			next := h.OnFaultSimBatch
			out.OnFaultSimBatch = func(circuit, kind string, lanes int, elapsed time.Duration) {
				if prev != nil {
					prev(circuit, kind, lanes, elapsed)
				}
				next(circuit, kind, lanes, elapsed)
			}
		}
		if h.OnPodemChunk != nil {
			prev := out.OnPodemChunk
			next := h.OnPodemChunk
			out.OnPodemChunk = func(circuit string, start, n int, elapsed time.Duration) {
				if prev != nil {
					prev(circuit, start, n, elapsed)
				}
				next(circuit, start, n, elapsed)
			}
		}
	}
	return out
}

// patternSource supplies the ATPG result for a circuit: the Engine plugs
// in its memoized layer, plain package functions the direct generator.
type patternSource func(ctx context.Context, c *netlist.Circuit) (*atpg.Result, error)

// directPatterns generates without caching, reporting through hooks.
func directPatterns(cfg Config, hooks Hooks) patternSource {
	return func(ctx context.Context, c *netlist.Circuit) (*atpg.Result, error) {
		hooks.stageStart(c.Name, StageATPG)
		start := time.Now()
		res, err := atpg.GenerateObserved(ctx, c, scaledATPG(c, cfg), hooks.atpgObserver(c))
		if err != nil {
			hooks.stageDone(c.Name, StageATPG, time.Since(start), StageInfo{Failed: true})
			return nil, err
		}
		hooks.stageDone(c.Name, StageATPG, time.Since(start),
			StageInfo{Patterns: len(res.Patterns), Backtracks: res.Backtracks})
		return res, nil
	}
}

// patternKey identifies one memoized ATPG run: the frozen circuit's
// structural fingerprint plus the exact generation options (which the
// large-circuit scaling may vary per circuit). Options.Workers is
// normalized out of the key — it changes wall time only, never a result
// bit, so runs that differ only in worker count share one entry.
type patternKey struct {
	fp   uint64
	opts atpg.Options
}

func newPatternKey(fp uint64, opts atpg.Options) patternKey {
	opts.Workers = 0
	return patternKey{fp: fp, opts: opts}
}

// patternEntry is one cache slot. done is closed when res/err are final.
type patternEntry struct {
	done chan struct{}
	res  *atpg.Result
	err  error
}

// patternCache memoizes ATPG results with in-flight coalescing: when two
// workers need the same circuit's patterns, one generates and the other
// waits. Failed runs (including cancellations) are evicted so a later
// caller with a healthy context retries instead of inheriting the error.
type patternCache struct {
	mu sync.Mutex
	m  map[patternKey]*patternEntry
}

// get returns the cached result for key, generating it via gen on a miss.
// hit reports whether this caller avoided generation work (a prior result
// or another in-flight caller's).
func (pc *patternCache) get(ctx context.Context, key patternKey,
	gen func() (*atpg.Result, error)) (res *atpg.Result, hit bool, err error) {

	for {
		pc.mu.Lock()
		if pc.m == nil {
			pc.m = make(map[patternKey]*patternEntry)
		}
		e, ok := pc.m[key]
		if !ok {
			e = &patternEntry{done: make(chan struct{})}
			pc.m[key] = e
			pc.mu.Unlock()
			e.res, e.err = gen()
			if e.err != nil {
				pc.mu.Lock()
				delete(pc.m, key)
				pc.mu.Unlock()
			}
			close(e.done)
			return e.res, false, e.err
		}
		pc.mu.Unlock()
		select {
		case <-e.done:
			if e.err != nil {
				// The generating caller failed; retry under our context.
				if cerr := ctx.Err(); cerr != nil {
					return nil, false, cerr
				}
				continue
			}
			return e.res, true, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// Engine runs Table I-style experiments across a bounded worker pool with
// a shared, memoized ATPG layer: every experiment on the same frozen
// circuit (Compare, CompareEnhanced, StudyReordering, repeated runs)
// generates patterns exactly once. The zero value is not usable; use
// NewEngine. An Engine is safe for concurrent use.
type Engine struct {
	// Cfg is the experiment configuration, fixed at construction.
	Cfg Config
	// Workers bounds the worker pool of Run; values < 1 mean
	// runtime.GOMAXPROCS(0).
	Workers int
	// Hooks observes stages and progress. Set before calling Run.
	Hooks Hooks

	cache  patternCache
	hits   atomic.Int64
	misses atomic.Int64
}

// NewEngine returns an Engine over cfg with GOMAXPROCS workers.
func NewEngine(cfg Config) *Engine {
	return &Engine{Cfg: cfg}
}

// CacheStats reports how many pattern lookups were served from the cache
// (hits — including waits on an in-flight generation) versus generated
// (misses).
func (e *Engine) CacheStats() (hits, misses int64) {
	return e.hits.Load(), e.misses.Load()
}

// patterns is the Engine's memoized pattern source under its own Cfg.
func (e *Engine) patterns(ctx context.Context, c *netlist.Circuit) (*atpg.Result, error) {
	return e.patternsFor(e.Cfg)(ctx, c)
}

// patternsFor returns a memoized pattern source under an arbitrary
// configuration. The cache key includes the (circuit-scaled) ATPG options,
// so sources built from different configurations share entries exactly
// when their generation work would be identical — the per-job override
// path of the scanpowerd service rides on this.
func (e *Engine) patternsFor(cfg Config) patternSource {
	return func(ctx context.Context, c *netlist.Circuit) (*atpg.Result, error) {
		opts := scaledATPG(c, cfg)
		key := newPatternKey(c.Fingerprint(), opts)
		gen := func() (*atpg.Result, error) {
			e.Hooks.stageStart(c.Name, StageATPG)
			start := time.Now()
			res, err := atpg.GenerateObserved(ctx, c, opts, e.Hooks.atpgObserver(c))
			if err != nil {
				e.Hooks.stageDone(c.Name, StageATPG, time.Since(start), StageInfo{Failed: true})
				return nil, err
			}
			e.Hooks.stageDone(c.Name, StageATPG, time.Since(start),
				StageInfo{Patterns: len(res.Patterns), Backtracks: res.Backtracks})
			return res, nil
		}
		res, hit, err := e.cache.get(ctx, key, gen)
		if err != nil {
			return nil, err
		}
		if hit {
			e.hits.Add(1)
			// Cache-served stages still emit a paired start/done (with
			// CacheHit set) so span accounting never sees an unbalanced
			// close.
			e.Hooks.stageStart(c.Name, StageATPG)
			e.Hooks.stageDone(c.Name, StageATPG, 0,
				StageInfo{Patterns: len(res.Patterns), CacheHit: true})
		} else {
			e.misses.Add(1)
		}
		return res, nil
	}
}

// Compare runs the Table I experiment on c through the Engine's pattern
// cache; repeated calls (or CompareEnhanced/StudyReordering on the same
// circuit) reuse the generated patterns.
func (e *Engine) Compare(ctx context.Context, c *netlist.Circuit) (*Comparison, error) {
	return compareWith(ctx, c, e.Cfg, e.patterns, e.Hooks)
}

// CompareWith is Compare under a per-call configuration override while
// still sharing the Engine's memoized ATPG layer: calls whose (scaled)
// ATPG options match — e.g. the same circuit requested with different
// measurement backends — generate patterns once. The scanpowerd service
// uses this to apply per-job Config overrides on one shared cache.
func (e *Engine) CompareWith(ctx context.Context, c *netlist.Circuit, cfg Config) (*Comparison, error) {
	return compareWith(ctx, c, cfg, e.patternsFor(cfg), e.Hooks)
}

// CompareEnhanced runs the enhanced-scan extension through the cache.
func (e *Engine) CompareEnhanced(ctx context.Context, c *netlist.Circuit) (*EnhancedComparison, error) {
	return compareEnhancedWith(ctx, c, e.Cfg, e.patterns)
}

// StudyReordering runs the reordering extension through the cache.
func (e *Engine) StudyReordering(ctx context.Context, c *netlist.Circuit, structure string) (*ReorderingStudy, error) {
	return studyReorderingWith(ctx, c, e.Cfg, structure, e.patterns)
}

// Result is one streamed outcome of Engine.Run: the comparison for
// names[Index], or the error that stopped it.
type Result struct {
	// Index is the circuit's position in the Run names slice.
	Index int
	// Name is names[Index].
	Name string
	// Comparison is the Table I row; nil when Err is set.
	Comparison *Comparison
	// Err is the per-circuit failure, ctx.Err() for circuits abandoned
	// by cancellation.
	Err error
}

// Run fans the named benchmarks out across the worker pool and streams
// per-circuit results as they complete, in completion order (Result.Index
// restores input order). The returned channel is buffered for the whole
// run — readers may abandon it at any time — and closes when every worker
// has finished. On cancellation, queued circuits are dropped and in-flight
// ones return promptly with ctx's error.
func (e *Engine) Run(ctx context.Context, names []string) (<-chan Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := e.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) {
		workers = len(names)
	}
	if workers < 1 {
		workers = 1
	}
	out := make(chan Result, len(names))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var done atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := Result{Index: i, Name: names[i]}
				if err := ctx.Err(); err != nil {
					r.Err = err
				} else if c, err := Benchmark(names[i]); err != nil {
					r.Err = err
				} else {
					r.Comparison, r.Err = e.Compare(ctx, c)
				}
				out <- r
				e.Hooks.progress(r.Name, int(done.Add(1)), len(names))
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := range names {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, nil
}

// RunAll is the blocking form of Run: it returns the comparisons in input
// order, or the first error (decorated with its circuit name). On
// cancellation it returns ctx's error.
func (e *Engine) RunAll(ctx context.Context, names []string) ([]*Comparison, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ch, err := e.Run(ctx, names)
	if err != nil {
		return nil, err
	}
	out := make([]*Comparison, len(names))
	var firstErr error
	got := 0
	for r := range ch {
		got++
		if r.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", r.Name, r.Err)
			}
			continue
		}
		out[r.Index] = r.Comparison
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if got < len(names) {
		return nil, ctx.Err()
	}
	return out, nil
}

// WriteTable renders the Table I rows for names to w in input order,
// streaming each row as soon as every earlier row is available. With
// Workers > 1 the output is byte-identical to the sequential WriteTable —
// the experiments are independent and individually deterministic.
func (e *Engine) WriteTable(ctx context.Context, w io.Writer, names []string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, err := fmt.Fprintln(w, TableHeader()); err != nil {
		return err
	}
	ch, err := e.Run(ctx, names)
	if err != nil {
		return err
	}
	pending := make(map[int]Result, len(names))
	next := 0
	for r := range ch {
		pending[r.Index] = r
		for {
			rr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if rr.Err != nil {
				// The out channel is buffered for the whole run, so the
				// remaining workers finish without a reader.
				return fmt.Errorf("%s: %w", rr.Name, rr.Err)
			}
			if _, err := fmt.Fprintln(w, rr.Comparison.Row()); err != nil {
				return err
			}
			next++
		}
	}
	if next < len(names) {
		return ctx.Err()
	}
	return nil
}
