package scanpower

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/telemetry"
)

// stageBalance counts OnStageStart/OnStageDone events per stage and the
// Failed flags seen, under a mutex (Engine workers may be concurrent).
type stageBalance struct {
	mu     sync.Mutex
	starts map[string]int
	dones  map[string]int
	failed map[string]int
}

func newStageBalance() *stageBalance {
	return &stageBalance{
		starts: make(map[string]int),
		dones:  make(map[string]int),
		failed: make(map[string]int),
	}
}

func (b *stageBalance) hooks() Hooks {
	return Hooks{
		OnStageStart: func(_, stage string) {
			b.mu.Lock()
			b.starts[stage]++
			b.mu.Unlock()
		},
		OnStageDone: func(_, stage string, _ time.Duration, info StageInfo) {
			b.mu.Lock()
			b.dones[stage]++
			if info.Failed {
				b.failed[stage]++
			}
			b.mu.Unlock()
		},
	}
}

func (b *stageBalance) check(t *testing.T) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	for stage, n := range b.starts {
		if b.dones[stage] != n {
			t.Errorf("stage %s: %d starts but %d dones", stage, n, b.dones[stage])
		}
	}
	for stage, n := range b.dones {
		if b.starts[stage] != n {
			t.Errorf("stage %s: %d dones but %d starts", stage, n, b.starts[stage])
		}
	}
}

// TestStageHooksPairedOnError: however a stage ends — ATPG aborted by
// cancellation, or a measurement stage cut off mid-flight — every
// OnStageStart has a matching OnStageDone (with Failed set on the broken
// stage), and the Recorder's span tree drains to zero open spans.
func TestStageHooksPairedOnError(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	// cancelOn aborts the run the moment the named stage starts.
	for _, cancelOn := range []string{StageATPG, StageTraditional, StageProposed} {
		t.Run("cancel-during-"+cancelOn, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			bal := newStageBalance()
			var buf bytes.Buffer
			tw := telemetry.NewTraceWriter(&buf)
			rec := NewRecorder(telemetry.NewRegistry(), tw)
			trigger := Hooks{OnStageStart: func(_, stage string) {
				if stage == cancelOn {
					cancel()
				}
			}}
			eng := NewEngine(DefaultConfig())
			eng.Hooks = MergeHooks(trigger, bal.hooks(), rec.Hooks())
			_, err := eng.Compare(ctx, c)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Compare error = %v, want context.Canceled", err)
			}
			bal.check(t)
			bal.mu.Lock()
			if bal.failed[cancelOn] == 0 {
				t.Errorf("stage %s aborted but no StageInfo.Failed reported", cancelOn)
			}
			bal.mu.Unlock()
			rec.Close()
			if open := tw.OpenSpans(); open != 0 {
				t.Errorf("%d spans still open after Recorder.Close", open)
			}
		})
	}
}

// TestStageHooksPairedOnSuccess pins the balance on the happy path too.
func TestStageHooksPairedOnSuccess(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	bal := newStageBalance()
	eng := NewEngine(DefaultConfig())
	eng.Hooks = bal.hooks()
	if _, err := eng.Compare(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	bal.check(t)
	bal.mu.Lock()
	defer bal.mu.Unlock()
	for stage, n := range bal.failed {
		if n != 0 {
			t.Errorf("stage %s reported Failed on a clean run", stage)
		}
	}
	if len(bal.starts) != 4 {
		t.Errorf("saw %d distinct stages, want 4", len(bal.starts))
	}
}

// TestPatternCacheCoalescing proves the cache's concurrency contract
// directly: two distinct keys generate at the same time (the cache lock is
// not held across generation), while a duplicate of an in-flight key waits
// for that generation and comes back as a hit.
func TestPatternCacheCoalescing(t *testing.T) {
	var pc patternCache
	ctx := context.Background()
	keyA := patternKey{fp: 1}
	keyB := patternKey{fp: 2}
	resA, resB := &atpg.Result{}, &atpg.Result{}

	aStarted := make(chan struct{})
	bStarted := make(chan struct{})
	dupWaiting := make(chan struct{})
	release := make(chan struct{})
	fail := func(msg string) {
		t.Helper()
		t.Error(msg)
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // generator for key A
		defer wg.Done()
		res, hit, err := pc.get(ctx, keyA, func() (*atpg.Result, error) {
			close(aStarted)
			select {
			case <-bStarted:
				// Key B's generator ran while we were still generating:
				// the cache cannot be holding its lock across gen.
			case <-time.After(10 * time.Second):
				fail("key B's generator never started while key A's was in flight")
			}
			<-release
			return resA, nil
		})
		if err != nil || hit || res != resA {
			fail("key A generator: unexpected result")
		}
	}()
	go func() { // generator for key B
		defer wg.Done()
		<-aStarted
		res, hit, err := pc.get(ctx, keyB, func() (*atpg.Result, error) {
			close(bStarted)
			<-release
			return resB, nil
		})
		if err != nil || hit || res != resB {
			fail("key B generator: unexpected result")
		}
	}()
	go func() { // duplicate of key A: must wait, then hit
		defer wg.Done()
		<-aStarted
		close(dupWaiting)
		res, hit, err := pc.get(ctx, keyA, func() (*atpg.Result, error) {
			fail("duplicate key regenerated instead of waiting")
			return nil, nil
		})
		if err != nil {
			fail("duplicate key: " + err.Error())
		}
		if !hit {
			fail("duplicate key did not record a cache hit")
		}
		if res != resA {
			fail("duplicate key got a different result than the generator")
		}
	}()

	<-dupWaiting
	time.Sleep(10 * time.Millisecond) // let the duplicate reach its wait
	close(release)
	wg.Wait()
}

// TestPatternCacheFailedEviction: a failed generation must not poison the
// key — the next caller regenerates.
func TestPatternCacheFailedEviction(t *testing.T) {
	var pc patternCache
	ctx := context.Background()
	key := patternKey{fp: 9}
	boom := errors.New("boom")
	if _, _, err := pc.get(ctx, key, func() (*atpg.Result, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first get error = %v, want boom", err)
	}
	want := &atpg.Result{}
	res, hit, err := pc.get(ctx, key, func() (*atpg.Result, error) { return want, nil })
	if err != nil || hit || res != want {
		t.Errorf("retry after failure: res=%p hit=%v err=%v, want fresh generation", res, hit, err)
	}
}

// TestEngineSeedStableJSON: the same ATPG seed must yield byte-identical
// Table I JSON regardless of worker count — parallelism must not leak into
// the measured numbers.
func TestEngineSeedStableJSON(t *testing.T) {
	names := []string{"s344", "s382", "s510"}
	render := func(workers int) []byte {
		cfg := DefaultConfig()
		cfg.ATPG.Seed = 7
		eng := NewEngine(cfg)
		eng.Workers = workers
		cmps, err := eng.RunAll(context.Background(), names)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := NewTable("Table I", cmps).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("-j 1 and -j 8 render different JSON:\n--- j=1 ---\n%s--- j=8 ---\n%s", serial, parallel)
	}
}

// TestPatternCachePanicEvicts: a generation that panics must not wedge
// its key. The panic reaches the generating caller, a caller already
// waiting on the entry is released and regenerates, and the entry is
// gone, so a later caller regenerates too instead of waiting forever.
func TestPatternCachePanicEvicts(t *testing.T) {
	var pc patternCache
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	key := patternKey{fp: 7}
	want := &atpg.Result{}

	started := make(chan struct{})
	waited := make(chan error, 1)
	go func() {
		<-started
		res, hit, err := pc.get(ctx, key, func() (*atpg.Result, error) { return want, nil })
		if err == nil && (hit || res != want) {
			err = errors.New("waiter did not regenerate after the panic")
		}
		waited <- err
	}()
	func() {
		defer func() {
			if r := recover(); r != "injected" {
				t.Errorf("recovered %v, want the injected panic", r)
			}
		}()
		pc.get(ctx, key, func() (*atpg.Result, error) {
			close(started)
			// Let the waiter reach its wait. Should it only get there
			// after the panic, it regenerates all the same.
			time.Sleep(10 * time.Millisecond)
			panic("injected")
		})
	}()
	if err := <-waited; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	if res, hit, err := pc.get(ctx, key, func() (*atpg.Result, error) { return nil, nil }); err != nil || !hit || res != want {
		t.Errorf("after the waiter regenerated: res=%p hit=%v err=%v, want its result as a hit", res, hit, err)
	}
}

// TestStageHooksPairedOnPanic: a panic inside a stage (ATPG, or a
// measurement stage) still pairs the stage's OnStageStart with a failed
// OnStageDone before it unwinds, leaves no span open, and leaves the
// Engine usable: the next Compare of the same circuit finishes instead of
// blocking on the pattern cache.
func TestStageHooksPairedOnPanic(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	for _, panicIn := range []string{StageATPG, StageProposed} {
		t.Run("panic-during-"+panicIn, func(t *testing.T) {
			bal := newStageBalance()
			var buf bytes.Buffer
			tw := telemetry.NewTraceWriter(&buf)
			rec := NewRecorder(telemetry.NewRegistry(), tw)
			var mu sync.Mutex
			armed := true
			trigger := Hooks{OnSubStage: func(_, stage, _ string, _ time.Duration, _ StageInfo) {
				mu.Lock()
				fire := armed && stage == panicIn
				if fire {
					armed = false
				}
				mu.Unlock()
				if fire {
					panic("injected " + stage + " panic")
				}
			}}
			eng := NewEngine(DefaultConfig())
			eng.Hooks = MergeHooks(trigger, bal.hooks(), rec.Hooks())
			func() {
				defer func() {
					if r := recover(); r == nil {
						t.Fatal("Compare returned without the injected panic")
					}
				}()
				eng.Compare(context.Background(), c)
			}()
			bal.check(t)
			bal.mu.Lock()
			if bal.failed[panicIn] != 1 {
				t.Errorf("stage %s panicked but %d failed OnStageDone reports, want 1", panicIn, bal.failed[panicIn])
			}
			bal.mu.Unlock()

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if _, err := eng.Compare(ctx, c); err != nil {
				t.Fatalf("Compare after the panic: %v", err)
			}
			bal.check(t)
			rec.Close()
			if open := tw.OpenSpans(); open != 0 {
				t.Errorf("%d spans still open after Recorder.Close", open)
			}
		})
	}
}
