// Package probe carries the stage events of an experiment from the
// kernels that produce them to whoever listens, on the context the
// kernels already take. A caller opens a circuit scope on the context with
// a sink, derives one stage scope per stage, and every kernel below emits
// into the scope it finds there. A context without a scope makes every
// emission a no-op that allocates nothing.
package probe

import (
	"context"
	"time"
)

// Kind names an event.
type Kind uint8

const (
	// StageStart opens the stage of its scope.
	StageStart Kind = iota + 1
	// StageDone closes the stage: Elapsed, Patterns, Backtracks,
	// CacheHit and Failed.
	StageDone
	// Progress reports a finished circuit of a batch run: N circuits of
	// Total are done.
	Progress
	// SubStage reports a finished sub-stage Name (an ATPG phase or a
	// structure-build phase) with its Elapsed time and, for ATPG phases,
	// the Patterns after it.
	SubStage
	// PodemFault reports one PODEM attempt on fault Name: its Outcome and
	// Backtracks.
	PodemFault
	// Justify reports one justification attempt: OK and Backtracks.
	Justify
	// Samples reports N Monte-Carlo observability vectors folded into the
	// estimate.
	Samples
	// Pattern reports the measured pattern with zero-based index N.
	Pattern
	// MeasureBatch reports one packed measurement batch of N cycles.
	MeasureBatch
	// MCBatch reports one packed Monte-Carlo batch of kind Name ("obs" or
	// "fill") carrying N lanes.
	MCBatch
	// FaultSimBatch reports one packed fault-dropping pass of kind Name
	// ("drop" or "compact") over N pattern lanes.
	FaultSimBatch
	// PodemChunk reports one fault-parallel PODEM chunk of N faults
	// starting at Start in the residual queue.
	PodemChunk
	// CacheFill reports a result admitted to the Engine's pattern cache:
	// N entries it evicted and Bytes, the change in resident bytes.
	CacheFill
	// Closed ends a circuit scope.
	Closed
)

// Event is one report. Which fields are set depends on Kind.
type Event struct {
	Kind Kind
	// Name is the sub-stage, batch kind or fault.
	Name string
	// Outcome is a PODEM outcome: "detected", "untestable", "aborted" or
	// "skipped".
	Outcome string
	// N counts lanes, vectors, faults or finished circuits, or is a
	// pattern index.
	N int
	// Start is a PODEM chunk's offset; Total the circuits of a batch run.
	Start, Total int
	// Patterns and Backtracks are the counters of stages and sub-stages.
	Patterns, Backtracks int
	Elapsed              time.Duration
	// OK is a justification's success.
	OK bool
	// CacheHit and Failed qualify StageDone.
	CacheHit, Failed bool
	// Bytes is a CacheFill's change in resident bytes.
	Bytes int64
}

// Sink receives every event of a scope, with the scope it came from.
// Kernels may emit from several goroutines at once, so a sink must be
// safe for concurrent use.
type Sink func(sc *Scope, ev Event)

// Scope is where events are emitted: a circuit, or one stage of it.
type Scope struct {
	// Circuit names the circuit; Stage the stage, empty for the circuit
	// scope itself.
	Circuit, Stage string

	root *Scope
	sink Sink
}

type ctxKey struct{}

// Open returns ctx carrying a new circuit scope that reports to sink.
// With a nil sink it returns ctx and a nil scope.
func Open(ctx context.Context, sink Sink, circuit string) (context.Context, *Scope) {
	if sink == nil {
		return ctx, nil
	}
	sc := &Scope{Circuit: circuit, sink: sink}
	sc.root = sc
	return context.WithValue(ctx, ctxKey{}, sc), sc
}

// Stage returns ctx carrying a scope for the named stage of ctx's circuit
// scope, and emits StageStart on it. Without a scope on ctx it returns
// ctx and a nil scope.
func Stage(ctx context.Context, stage string) (context.Context, *Scope) {
	parent := From(ctx)
	if parent == nil {
		return ctx, nil
	}
	sc := &Scope{Circuit: parent.Circuit, Stage: stage, root: parent.root, sink: parent.sink}
	sc.Emit(Event{Kind: StageStart})
	return context.WithValue(ctx, ctxKey{}, sc), sc
}

// From returns the scope ctx carries, or nil. ctx may be nil.
func From(ctx context.Context) *Scope {
	if ctx == nil {
		return nil
	}
	sc, _ := ctx.Value(ctxKey{}).(*Scope)
	return sc
}

// Root returns the circuit scope s belongs to: one per opened circuit, so
// it tells apart two runs of circuits that share a name.
func (s *Scope) Root() *Scope { return s.root }

// Emit sends ev to the scope's sink. It is a no-op on a nil scope.
func (s *Scope) Emit(ev Event) {
	if s != nil {
		s.sink(s, ev)
	}
}

// Phase starts timing the sub-stage name and returns the stopper that
// emits it. On a nil scope the stopper does nothing.
func (s *Scope) Phase(name string) func() {
	if s == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		s.Emit(Event{Kind: SubStage, Name: name, Elapsed: time.Since(start)})
	}
}

// Close ends the circuit scope. It is a no-op on a nil scope.
func (s *Scope) Close() { s.Emit(Event{Kind: Closed}) }
