package atpg

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/netlist"
)

// benchParseS27 is loadS27 without the *testing.T, for benchmarks.
func benchParseS27() (*netlist.Circuit, error) {
	return bench.ParseString(s27, "s27")
}

func TestGenerateObservedMatchesGenerate(t *testing.T) {
	c := loadS27(t)
	opts := DefaultOptions()
	plain, err := Generate(c, opts)
	if err != nil {
		t.Fatal(err)
	}

	var (
		outcomes   = map[PodemOutcome]int{}
		backtracks int
		phases     []string
		batches    int
	)
	observed, err := GenerateObserved(context.Background(), c, opts, Observer{
		OnPodemFault: func(f Fault, outcome PodemOutcome, bt int) {
			outcomes[outcome]++
			backtracks += bt
		},
		OnRandomBatch: func(patterns, newDetects int) { batches++ },
		OnPhase: func(phase string, elapsed time.Duration, patterns int) {
			phases = append(phases, phase)
			if elapsed < 0 {
				t.Errorf("phase %s negative elapsed %v", phase, elapsed)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.Patterns, observed.Patterns) {
		t.Error("observer changed the generated pattern set")
	}
	if !reflect.DeepEqual(phases, []string{"random", "podem", "compact"}) {
		t.Errorf("phases = %v, want [random podem compact]", phases)
	}
	if batches == 0 {
		t.Error("no random batches observed")
	}
	if backtracks != observed.Backtracks {
		t.Errorf("observed backtracks %d != result total %d", backtracks, observed.Backtracks)
	}
	if outcomes[PodemUntestableFault] != observed.Untestable {
		t.Errorf("observed untestable %d != result %d",
			outcomes[PodemUntestableFault], observed.Untestable)
	}
	if outcomes[PodemAbortedFault]+outcomes[PodemSkipped] != observed.Aborted {
		t.Errorf("observed aborted+skipped %d != result %d",
			outcomes[PodemAbortedFault]+outcomes[PodemSkipped], observed.Aborted)
	}
}

// TestGenerateCancelledBeforeCompaction: compaction checks the context
// too, so a context cancelled as the PODEM phase ends (OnPhase fires just
// before compaction starts) ends the run with its error, not a result.
func TestGenerateCancelledBeforeCompaction(t *testing.T) {
	c := loadS27(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	podemPatterns := 0
	res, err := GenerateObserved(ctx, c, DefaultOptions(), Observer{
		OnPhase: func(phase string, _ time.Duration, patterns int) {
			if phase == "podem" {
				podemPatterns = patterns
				cancel()
			}
		},
	})
	if podemPatterns < 2 {
		t.Fatalf("PODEM phase ended with %d patterns; compaction needs 2", podemPatterns)
	}
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("GenerateObserved returned a result: %v, error %v; want no result and context.Canceled", res != nil, err)
	}
}

func TestObserverSkippedFaults(t *testing.T) {
	c := loadS27(t)
	opts := DefaultOptions()
	opts.MaxRandomPatterns = 0 // force everything through PODEM
	opts.MaxPodemFaults = 1
	skipped := 0
	res, err := GenerateObserved(context.Background(), c, opts, Observer{
		OnPodemFault: func(f Fault, outcome PodemOutcome, bt int) {
			if outcome == PodemSkipped {
				skipped++
				if bt != 0 {
					t.Errorf("skipped fault reported %d backtracks", bt)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if skipped == 0 {
		t.Error("MaxPodemFaults=1 produced no skipped-fault events")
	}
	if res.Aborted < skipped {
		t.Errorf("result aborted %d < skipped events %d", res.Aborted, skipped)
	}
}

// TestZeroObserverAddsNoAllocations is the hot-path guard of the telemetry
// layer: generation through GenerateObserved with a zero Observer must
// allocate exactly what the plain Generate path does — the observer hooks
// may not leak allocations into the PODEM loop when disabled.
func TestZeroObserverAddsNoAllocations(t *testing.T) {
	c := loadS27(t)
	opts := DefaultOptions()
	ctx := context.Background()
	// Warm-up so lazily initialized state doesn't skew the first sample.
	if _, err := GenerateObserved(ctx, c, opts, Observer{}); err != nil {
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(5, func() {
		if _, err := GenerateContext(ctx, c, opts); err != nil {
			t.Fatal(err)
		}
	})
	zero := testing.AllocsPerRun(5, func() {
		if _, err := GenerateObserved(ctx, c, opts, Observer{}); err != nil {
			t.Fatal(err)
		}
	})
	if zero > base {
		t.Errorf("zero Observer allocates more than plain Generate: %v > %v allocs/run", zero, base)
	}
}

func BenchmarkGenerateObserver(b *testing.B) {
	c, err := benchParseS27()
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	ctx := context.Background()
	b.Run("nil", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := GenerateObserved(ctx, c, opts, Observer{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("live", func(b *testing.B) {
		var faults, batches int
		ob := Observer{
			OnPodemFault:  func(Fault, PodemOutcome, int) { faults++ },
			OnRandomBatch: func(int, int) { batches++ },
			OnPhase:       func(string, time.Duration, int) {},
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := GenerateObserved(ctx, c, opts, ob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
