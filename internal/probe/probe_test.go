package probe

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestNoSinkAllocatesNothing: without a scope on the context every probe
// operation is a no-op that allocates nothing.
func TestNoSinkAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		sctx, sc := Stage(ctx, "stage")
		From(sctx).Emit(Event{Kind: MeasureBatch, N: 256, Elapsed: time.Millisecond})
		sc.Phase("fill")()
		sc.Close()
		_, root := Open(ctx, nil, "c")
		root.Emit(Event{Kind: Pattern})
	})
	if allocs != 0 {
		t.Errorf("probe without a sink allocates %v times per run, want 0", allocs)
	}
	if From(nil) != nil {
		t.Error("From(nil) returned a scope")
	}
}

// TestTelemetryScopesReportInOrder: stage scopes report to their circuit's sink
// with their own names, in emission order, and share the circuit's root.
func TestTelemetryScopesReportInOrder(t *testing.T) {
	type got struct {
		circuit, stage string
		kind           Kind
		root           *Scope
	}
	var events []got
	ctx, root := Open(context.Background(), func(sc *Scope, ev Event) {
		events = append(events, got{sc.Circuit, sc.Stage, ev.Kind, sc.Root()})
	}, "s27")
	sctx, sc := Stage(ctx, "atpg")
	From(sctx).Emit(Event{Kind: PodemFault})
	sc.Phase("podem")()
	sc.Emit(Event{Kind: StageDone})
	root.Close()

	want := []got{
		{"s27", "atpg", StageStart, root},
		{"s27", "atpg", PodemFault, root},
		{"s27", "atpg", SubStage, root},
		{"s27", "atpg", StageDone, root},
		{"s27", "", Closed, root},
	}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

// TestTelemetryConcurrentEmit: scopes are read-only after creation, so many
// goroutines may emit on one at once.
func TestTelemetryConcurrentEmit(t *testing.T) {
	var mu sync.Mutex
	n := 0
	ctx, _ := Open(context.Background(), func(*Scope, Event) {
		mu.Lock()
		n++
		mu.Unlock()
	}, "c")
	_, sc := Stage(ctx, "atpg")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sc.Emit(Event{Kind: PodemChunk, N: 1})
			}
		}()
	}
	wg.Wait()
	if n != 1+400 {
		t.Errorf("sink saw %d events, want %d", n, 401)
	}
}
