package scanpower

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// engineTestNames are small Table I circuits, kept few so the parallel
// tests stay fast.
var engineTestNames = []string{"s344", "s382", "s444", "s510"}

// TestEngineDeterminism: Engine.WriteTable with an oversubscribed worker
// pool (j=8) must emit byte-identical Table I rows to the package-level
// WriteTable wrapper, which runs one worker (j=1) — the per-circuit
// experiments are independent and seed-deterministic.
func TestEngineDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	var seq strings.Builder
	if err := WriteTable(context.Background(), &seq, engineTestNames, cfg); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cfg)
	eng.Workers = 8
	var par strings.Builder
	if err := eng.WriteTable(context.Background(), &par, engineTestNames); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("parallel table differs from sequential:\n--- sequential ---\n%s--- parallel (j=8) ---\n%s",
			seq.String(), par.String())
	}
}

// TestEngineCancellation: cancelling mid-run must abort promptly with
// context.Canceled, including circuits whose ATPG/build is in flight.
func TestEngineCancellation(t *testing.T) {
	eng := NewEngine(DefaultConfig())
	eng.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	// s9234 is the largest profile; sequentially this run takes far
	// longer than the cancellation bound below.
	names := []string{"s9234", "s5378", "s1423", "s1238"}

	type outcome struct {
		cmps []*Comparison
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		cmps, err := eng.RunAll(ctx, names)
		done <- outcome{cmps, err}
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	start := time.Now()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatal("RunAll returned no error after cancellation")
		}
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("RunAll error = %v, want context.Canceled", o.err)
		}
		if o.cmps != nil {
			t.Error("RunAll returned results alongside an error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunAll did not return within 30s of cancellation")
	}
	if waited := time.Since(start); waited > 15*time.Second {
		t.Errorf("cancellation took %v to propagate", waited)
	}
}

// TestEngineRunStreams exercises the streaming surface: every name yields
// exactly one Result, indices restore input order, progress fires per
// circuit.
func TestEngineRunStreams(t *testing.T) {
	eng := NewEngine(DefaultConfig())
	eng.Workers = 4
	var mu sync.Mutex
	progress := 0
	eng.Hooks.OnProgress = func(circuit string, done, total int) {
		mu.Lock()
		progress++
		mu.Unlock()
		if total != len(engineTestNames) {
			t.Errorf("OnProgress total = %d, want %d", total, len(engineTestNames))
		}
	}
	ch, err := eng.Run(context.Background(), engineTestNames)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for r := range ch {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if seen[r.Index] {
			t.Fatalf("duplicate result for index %d", r.Index)
		}
		seen[r.Index] = true
		if r.Name != engineTestNames[r.Index] || r.Comparison.Circuit != r.Name {
			t.Errorf("result %d: name %q, comparison %q, want %q",
				r.Index, r.Name, r.Comparison.Circuit, engineTestNames[r.Index])
		}
	}
	if len(seen) != len(engineTestNames) {
		t.Errorf("got %d results, want %d", len(seen), len(engineTestNames))
	}
	mu.Lock()
	defer mu.Unlock()
	if progress != len(engineTestNames) {
		t.Errorf("OnProgress fired %d times, want %d", progress, len(engineTestNames))
	}
}

// TestEngineCacheHit: the second Compare of the same circuit — and the
// extension studies after it — must perform zero ATPG work, observed both
// through the Hooks counters and CacheStats.
func TestEngineCacheHit(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(DefaultConfig())
	var mu sync.Mutex
	var atpgStarts int
	var atpgInfos []StageInfo
	eng.Hooks = Hooks{
		OnStageStart: func(circuit, stage string) {
			if stage == StageATPG {
				mu.Lock()
				atpgStarts++
				mu.Unlock()
			}
		},
		OnStageDone: func(circuit, stage string, elapsed time.Duration, info StageInfo) {
			if stage == StageATPG {
				mu.Lock()
				atpgInfos = append(atpgInfos, info)
				mu.Unlock()
			}
		},
	}
	ctx := context.Background()
	first, err := eng.Compare(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Compare(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if first.Patterns != second.Patterns || first.Traditional != second.Traditional {
		t.Error("cached run disagrees with fresh run")
	}
	// A regenerated circuit with identical structure must also hit.
	c2, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CompareEnhanced(ctx, c2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.StudyReordering(ctx, c2, "proposed"); err != nil {
		t.Fatal(err)
	}

	// Start/done pairs must balance even for cache-served stages: every
	// OnStageDone (one generation + three hits) had a matching
	// OnStageStart.
	if atpgStarts != 4 {
		t.Errorf("ATPG start events = %d, want 4 (one per done event)", atpgStarts)
	}
	if len(atpgInfos) != 4 {
		t.Fatalf("got %d ATPG stage reports, want 4", len(atpgInfos))
	}
	if atpgInfos[0].CacheHit || atpgInfos[0].Backtracks == 0 {
		t.Errorf("first ATPG stage = %+v, want a miss with backtrack work", atpgInfos[0])
	}
	for i, info := range atpgInfos[1:] {
		if !info.CacheHit || info.Backtracks != 0 {
			t.Errorf("ATPG stage %d = %+v, want a zero-work cache hit", i+1, info)
		}
		if info.Patterns != atpgInfos[0].Patterns {
			t.Errorf("cached stage %d reports %d patterns, want %d",
				i+1, info.Patterns, atpgInfos[0].Patterns)
		}
	}
	if hits, misses := eng.CacheStats(); hits != 3 || misses != 1 {
		t.Errorf("CacheStats = (%d hits, %d misses), want (3, 1)", hits, misses)
	}
}

// TestEngineStopsAtFirstError: a circuit error ends the whole run. With
// one worker and the failing circuit first, RunAll and WriteTable return
// its error and no later circuit starts a stage — neither before they
// return nor behind their back afterwards.
func TestEngineStopsAtFirstError(t *testing.T) {
	var mu sync.Mutex
	var started []string
	eng := NewEngine(DefaultConfig())
	eng.Workers = 1
	eng.Hooks.OnStageStart = func(circuit, stage string) {
		mu.Lock()
		started = append(started, circuit+"/"+stage)
		mu.Unlock()
	}
	noneStarted := func(call string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if len(started) > 0 {
			t.Errorf("%s: stages started after the first error: %v", call, started)
		}
		started = nil
	}

	_, err := eng.RunAll(context.Background(), []string{"bogus", "s9234"})
	if !errors.Is(err, ErrUnknownBenchmark) || !strings.HasPrefix(err.Error(), "bogus: ") {
		t.Fatalf("RunAll error = %v, want bogus: unknown benchmark", err)
	}
	// RunAll drains its workers before returning, so this is final.
	noneStarted("RunAll")

	var sb strings.Builder
	err = eng.WriteTable(context.Background(), &sb, []string{"bogus", "s1423", "s5378"})
	if !errors.Is(err, ErrUnknownBenchmark) || !strings.HasPrefix(err.Error(), "bogus: ") {
		t.Fatalf("WriteTable error = %v, want bogus: unknown benchmark", err)
	}
	// WriteTable returns without draining; give a worker that kept going
	// the time to reach s1423's first stage.
	time.Sleep(300 * time.Millisecond)
	noneStarted("WriteTable")
}

// TestComparePreCancelled: an already-dead context must abort before any
// work happens.
func TestComparePreCancelled(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compare(ctx, c, DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("Compare error = %v, want context.Canceled", err)
	}
	var sb strings.Builder
	if err := WriteTable(ctx, &sb, []string{"s344"}, DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("WriteTable error = %v, want context.Canceled", err)
	}
}

// Typed-error satellites: the sentinels must be reachable via errors.Is
// through the public entry points' wrapping.
func TestErrNotMapped(t *testing.T) {
	c, err := ParseBench("INPUT(a)\nINPUT(b)\nOUTPUT(o)\nq = DFF(d)\nd = AND(a, q)\no = AND(b, q)\n", "unmapped")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compare(context.Background(), c, DefaultConfig())
	if !errors.Is(err, ErrNotMapped) {
		t.Errorf("Compare(unmapped) error = %v, want ErrNotMapped", err)
	}
}

func TestErrUnknownBenchmark(t *testing.T) {
	_, err := Benchmark("s0000")
	if !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("Benchmark error = %v, want ErrUnknownBenchmark", err)
	}
	if err == nil || !strings.Contains(err.Error(), "s0000") {
		t.Errorf("error %v does not name the offending benchmark", err)
	}
}
