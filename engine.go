package scanpower

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/atpg"
	"repro/internal/netlist"
	"repro/internal/probe"
	"repro/internal/scan"
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

// Hooks observes an Engine as it works. The Engine opens one probe scope
// per circuit and stage on the context it hands the kernels; every event
// they emit there reaches the matching field. Any field may be nil;
// callbacks must be safe for concurrent use when the Engine runs with
// more than one worker. The stage callbacks are coarse (four per
// circuit); the remaining callbacks are the deep instrumentation feed of
// the telemetry layer (see Recorder) and fire at per-fault / per-pattern
// granularity, so keep them cheap.
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

	// sink receives every event after the fields: the Recorder and
	// MergeHooks attach here.
	sink probe.Sink
}

// emit is Hooks as a probe sink: it sends each event to its matching
// field, then to the attached sink.
func (h Hooks) emit(sc *probe.Scope, ev probe.Event) {
	switch ev.Kind {
	case probe.StageStart:
		if h.OnStageStart != nil {
			h.OnStageStart(sc.Circuit, sc.Stage)
		}
	case probe.StageDone:
		if h.OnStageDone != nil {
			h.OnStageDone(sc.Circuit, sc.Stage, ev.Elapsed, StageInfo{
				Patterns: ev.Patterns, Backtracks: ev.Backtracks, CacheHit: ev.CacheHit, Failed: ev.Failed,
			})
		}
	case probe.Progress:
		if h.OnProgress != nil {
			h.OnProgress(sc.Circuit, ev.N, ev.Total)
		}
	case probe.SubStage:
		if h.OnSubStage != nil {
			h.OnSubStage(sc.Circuit, sc.Stage, ev.Name, ev.Elapsed, StageInfo{Patterns: ev.Patterns})
		}
	case probe.PodemFault:
		if h.OnPodemFault != nil {
			h.OnPodemFault(sc.Circuit, PodemFaultInfo{Fault: ev.Name, Outcome: ev.Outcome, Backtracks: ev.Backtracks})
		}
	case probe.Justify:
		if h.OnJustify != nil {
			h.OnJustify(sc.Circuit, JustifyInfo{Success: ev.OK, Backtracks: ev.Backtracks})
		}
	case probe.Samples:
		if h.OnObsSamples != nil {
			h.OnObsSamples(sc.Circuit, ev.N)
		}
	case probe.Pattern:
		if h.OnPattern != nil {
			h.OnPattern(sc.Circuit, sc.Stage, ev.N)
		}
	case probe.MeasureBatch:
		if h.OnMeasureBatch != nil {
			h.OnMeasureBatch(sc.Circuit, sc.Stage, ev.N, ev.Elapsed)
		}
	case probe.MCBatch:
		if h.OnMCBatch != nil {
			h.OnMCBatch(sc.Circuit, sc.Stage, ev.Name, ev.N, ev.Elapsed)
		}
	case probe.FaultSimBatch:
		if h.OnFaultSimBatch != nil {
			h.OnFaultSimBatch(sc.Circuit, ev.Name, ev.N, ev.Elapsed)
		}
	case probe.PodemChunk:
		if h.OnPodemChunk != nil {
			h.OnPodemChunk(sc.Circuit, ev.Start, ev.N, ev.Elapsed)
		}
	}
	if h.sink != nil {
		h.sink(sc, ev)
	}
}

// MergeHooks fans events out to any number of hook sets: every non-nil
// callback of every set fires, in argument order. Use it to combine a
// progress printer with a telemetry Recorder. The merged set's own fields
// are nil; it reports only through the Engine it is attached to.
func MergeHooks(hs ...Hooks) Hooks {
	hs = append([]Hooks(nil), hs...)
	return Hooks{sink: func(sc *probe.Scope, ev probe.Event) {
		for _, h := range hs {
			h.emit(sc, ev)
		}
	}}
}

// atpgObserver maps generation telemetry onto the ATPG stage scope sc.
// Without a scope it returns the zero Observer, which adds no work to
// generation.
func atpgObserver(sc *probe.Scope, c *netlist.Circuit) atpg.Observer {
	if sc == nil {
		return atpg.Observer{}
	}
	return atpg.Observer{
		OnPodemFault: func(f atpg.Fault, outcome atpg.PodemOutcome, backtracks int) {
			sc.Emit(probe.Event{Kind: probe.PodemFault, Name: f.Name(c), Outcome: outcome.String(), Backtracks: backtracks})
		},
		OnPhase: func(phase string, elapsed time.Duration, patterns int) {
			sc.Emit(probe.Event{Kind: probe.SubStage, Name: phase, Elapsed: elapsed, Patterns: patterns})
		},
		OnFaultSimBatch: func(kind string, lanes int, elapsed time.Duration) {
			sc.Emit(probe.Event{Kind: probe.FaultSimBatch, Name: kind, N: lanes, Elapsed: elapsed})
		},
		OnPodemChunk: func(start, n int, elapsed time.Duration) {
			sc.Emit(probe.Event{Kind: probe.PodemChunk, Start: start, N: n, Elapsed: elapsed})
		},
	}
}

// generate is the ATPG stage: generation on c under a stage scope of ctx,
// whose start and done always pair up.
// The done event is deferred, so a panic in generation still closes the
// stage (as failed) before it unwinds.
func generate(ctx context.Context, c *netlist.Circuit, opts atpg.Options) (res *atpg.Result, err error) {
	ctx, sc := probe.Stage(ctx, StageATPG)
	start := time.Now()
	defer func() {
		if res == nil {
			sc.Emit(probe.Event{Kind: probe.StageDone, Elapsed: time.Since(start), Failed: true})
			return
		}
		sc.Emit(probe.Event{Kind: probe.StageDone, Elapsed: time.Since(start),
			Patterns: len(res.Patterns), Backtracks: res.Backtracks})
	}()
	res, err = atpg.GenerateObserved(ctx, c, opts, atpgObserver(sc, c))
	if err != nil {
		return nil, err
	}
	return res, nil
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

// patternCacheBudget is the byte budget of an Engine's pattern cache
// (see resultBytes). The twelve Table I pattern sets charge about 0.56 MB
// together (s9234 246 KB, s5378 141 KB, the mid-size circuits 19–31 KB),
// so 4 MiB holds all of Table I about seven times over, and a one-pass
// run never evicts; a daemon serving distinct inline circuits keeps
// about 150 mid-size entries.
const patternCacheBudget = 4 << 20

// patternEntry is one cache slot. done is closed when res/err are final.
type patternEntry struct {
	key  patternKey
	done chan struct{}
	res  *atpg.Result
	err  error
	// size is what the settled result is charged; elem is the entry's
	// place in the recency list, nil while in flight and once evicted.
	size int64
	elem *list.Element
}

// patternCache memoizes ATPG results with in-flight coalescing: when two
// workers need the same circuit's patterns, one generates and the other
// waits. Failed runs (including cancellations and panics) are evicted so
// a later caller with a healthy context retries instead of inheriting the
// error. Settled results are kept within a byte budget, least recently
// used evicted first; an in-flight entry is never evicted.
type patternCache struct {
	mu sync.Mutex
	m  map[patternKey]*patternEntry
	// lru holds the settled, successful entries, most recently used at
	// the front; bytes is their total charge.
	lru   list.List
	bytes int64
	// budget overrides patternCacheBudget when positive.
	budget int64
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
			e = &patternEntry{key: key, done: make(chan struct{})}
			pc.m[key] = e
			pc.mu.Unlock()
			pc.fill(ctx, e, gen)
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
			pc.mu.Lock()
			if e.elem != nil {
				pc.lru.MoveToFront(e.elem)
			}
			pc.mu.Unlock()
			return e.res, true, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// errGenPanicked is what waiters on an entry see when its generation
// panicked; they retry, and the panic itself unwinds the generating
// caller.
var errGenPanicked = errors.New("scanpower: ATPG generation panicked")

// fill runs gen for the new entry e and settles it: a failure evicts e
// before done closes, a success is admitted under the budget. The
// settling is deferred, so a panic in gen also evicts e and releases its
// waiters before it propagates, instead of leaving every later caller for
// the key blocked on an entry that never settles. An admission reports
// its evictions and the change in resident bytes as a CacheFill event on
// ctx's probe scope.
func (pc *patternCache) fill(ctx context.Context, e *patternEntry, gen func() (*atpg.Result, error)) {
	panicked := true
	defer func() {
		if panicked {
			e.err = errGenPanicked
		}
		pc.mu.Lock()
		if e.err != nil {
			delete(pc.m, e.key)
			pc.mu.Unlock()
			close(e.done)
			return
		}
		evicted, delta := pc.admitLocked(e)
		pc.mu.Unlock()
		close(e.done)
		probe.From(ctx).Emit(probe.Event{Kind: probe.CacheFill, N: evicted, Bytes: delta})
	}()
	e.res, e.err = gen()
	panicked = false
}

// admitLocked charges the settled entry e as the most recently used one,
// then evicts least recently used entries until the cache fits its
// budget. An entry larger than the whole budget is not kept and evicts
// nothing; its caller and waiters still get its result. It returns the
// number of entries evicted and the change in resident bytes. Callers
// hold pc.mu.
func (pc *patternCache) admitLocked(e *patternEntry) (evicted int, delta int64) {
	budget := pc.budget
	if budget <= 0 {
		budget = patternCacheBudget
	}
	e.size = resultBytes(e.res)
	if e.size > budget {
		delete(pc.m, e.key)
		return 0, 0
	}
	e.elem = pc.lru.PushFront(e)
	pc.bytes += e.size
	delta = e.size
	for pc.bytes > budget {
		old := pc.lru.Remove(pc.lru.Back()).(*patternEntry)
		old.elem = nil
		delete(pc.m, old.key)
		pc.bytes -= old.size
		delta -= old.size
		evicted++
	}
	return evicted, delta
}

// resultBytes is what a cached result is charged against the budget: each
// pattern's PI and State bools plus its slice headers, and the Faults,
// Detected and DetCounts arrays.
func resultBytes(r *atpg.Result) int64 {
	n := len(r.Patterns) * int(unsafe.Sizeof(scan.Pattern{}))
	for _, p := range r.Patterns {
		n += len(p.PI) + len(p.State)
	}
	n += len(r.Faults)*int(unsafe.Sizeof(atpg.Fault{})) + len(r.Detected) +
		len(r.DetCounts)*int(unsafe.Sizeof(0))
	return int64(n)
}

// Engine runs Table I-style experiments across a bounded worker pool with
// a shared, memoized ATPG layer: every experiment on the same frozen
// circuit (Compare, the extension studies, repeated runs) generates
// patterns exactly once while the entry is resident; the cache
// keeps at most patternCacheBudget bytes of results. The zero value is
// not usable; use NewEngine. An Engine is safe for concurrent use.
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

// scope opens a circuit scope on ctx reporting to e.Hooks; close it when
// the circuit's work is done.
func (e *Engine) scope(ctx context.Context, circuit string) (context.Context, *probe.Scope) {
	return probe.Open(ctx, e.Hooks.emit, circuit)
}

// patternsFor returns c's memoized ATPG result under cfg. The cache key
// includes the (circuit-scaled) ATPG options, so configurations share
// entries exactly when their generation work would be identical — the
// per-job override path of the scanpowerd service rides on this.
func (e *Engine) patternsFor(ctx context.Context, c *netlist.Circuit, cfg Config) (*atpg.Result, error) {
	opts := scaledATPG(c, cfg)
	res, hit, err := e.cache.get(ctx, newPatternKey(c.Fingerprint(), opts),
		func() (*atpg.Result, error) { return generate(ctx, c, opts) })
	if err != nil {
		return nil, err
	}
	if !hit {
		e.misses.Add(1)
		return res, nil
	}
	e.hits.Add(1)
	// Cache-served stages still emit a paired start/done (with
	// CacheHit set) so span accounting never sees an unbalanced close.
	_, sc := probe.Stage(ctx, StageATPG)
	sc.Emit(probe.Event{Kind: probe.StageDone, Patterns: len(res.Patterns), CacheHit: true})
	return res, nil
}

// Patterns returns the test set every experiment of the Engine measures c
// with: its ATPG patterns under e.Cfg, generated once and then served from
// the pattern cache. The ATPG stage is reported in a circuit scope of its
// own. The slice is shared with the cache; callers must not modify it.
func (e *Engine) Patterns(ctx context.Context, c *netlist.Circuit) ([]scan.Pattern, error) {
	ctx, sc := e.scope(ctx, c.Name)
	defer sc.Close()
	res, err := e.patternsFor(ctx, c, e.Cfg)
	if err != nil {
		return nil, err
	}
	return res.Patterns, nil
}

// Compare runs the Table I experiment on c through the Engine's pattern
// cache; repeated calls (or the extension studies on the same circuit)
// reuse the generated patterns.
func (e *Engine) Compare(ctx context.Context, c *netlist.Circuit) (*Comparison, error) {
	return e.CompareWith(ctx, c, e.Cfg)
}

// CompareWith is Compare under a per-call configuration override while
// still sharing the Engine's memoized ATPG layer: calls whose (scaled)
// ATPG options match — e.g. the same circuit requested with different
// measurement backends — generate patterns once. The scanpowerd service
// uses this to apply per-job Config overrides on one shared cache.
func (e *Engine) CompareWith(ctx context.Context, c *netlist.Circuit, cfg Config) (*Comparison, error) {
	ctx, sc := e.scope(ctx, c.Name)
	defer sc.Close()
	return e.compareWith(ctx, c, cfg)
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
	return e.run(ctx, names, nil), nil
}

// run is Run with an optional fail hook: a worker hands each failed
// circuit's name-decorated error to fail before it reports the circuit.
// RunAll and WriteTable pass their context's cancel function, so the
// first failure cancels the run before any worker takes another circuit.
func (e *Engine) run(ctx context.Context, names []string, fail context.CancelCauseFunc) <-chan Result {
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
				cctx, sc := e.scope(ctx, r.Name)
				if err := ctx.Err(); err != nil {
					r.Err = err
				} else if c, err := Benchmark(r.Name); err != nil {
					r.Err = err
				} else {
					r.Comparison, r.Err = e.compareWith(cctx, c, e.Cfg)
				}
				if r.Err != nil && fail != nil {
					fail(fmt.Errorf("%s: %w", r.Name, r.Err))
				}
				out <- r
				sc.Emit(probe.Event{Kind: probe.Progress, N: int(done.Add(1)), Total: len(names)})
				sc.Close()
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
	return out
}

// RunAll is the blocking form of Run: it returns the comparisons in input
// order, or the first error (decorated with its circuit name). The first
// failure cancels the rest of the run: no worker starts another circuit,
// and circuits in flight abort at their next context check. On
// cancellation it returns ctx's error.
func (e *Engine) RunAll(ctx context.Context, names []string) ([]*Comparison, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	out := make([]*Comparison, len(names))
	got := 0
	for r := range e.run(runCtx, names, fail) {
		if r.Err == nil {
			out[r.Index] = r.Comparison
			got++
		}
	}
	if got < len(names) {
		return nil, runErr(ctx, runCtx)
	}
	return out, nil
}

// runErr is the error of a fail-fast run on runCtx, derived from ctx:
// ctx's own error when the caller cancelled, else the first circuit's
// failure that cancelled runCtx.
func runErr(ctx, runCtx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Cause(runCtx)
}

// WriteTable renders the Table I rows for names to w in input order,
// streaming each row as soon as every earlier row is available. The
// output is byte-identical for every Workers value — the experiments are
// independent and individually deterministic. The first failure cancels
// the rest of the run, as in RunAll; rows before the first failed or
// cancelled circuit are still written.
func (e *Engine) WriteTable(ctx context.Context, w io.Writer, names []string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, err := fmt.Fprintln(w, TableHeader()); err != nil {
		return err
	}
	runCtx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	pending := make(map[int]Result, len(names))
	next := 0
	for r := range e.run(runCtx, names, fail) {
		pending[r.Index] = r
		for {
			rr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if rr.Err != nil {
				// Returning cancels the run; the out channel is buffered
				// for the whole run, so the aborting workers finish
				// without a reader.
				return runErr(ctx, runCtx)
			}
			if _, err := fmt.Fprintln(w, rr.Comparison.Row()); err != nil {
				return err
			}
			next++
		}
	}
	if next < len(names) {
		return runErr(ctx, runCtx)
	}
	return nil
}
