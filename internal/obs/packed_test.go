package obs

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/iscas"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/probe"
	"repro/internal/sim"
)

// obsIdentical returns "" when two estimates agree bit for bit on every
// field, else the first differing field. The packed kernel promises
// bit-identity, so no tolerance is applied.
func obsIdentical(a, b *Observability) string {
	switch {
	case a.Samples != b.Samples:
		return "Samples"
	case a.Mean != b.Mean:
		return "Mean"
	}
	for n := range a.Lobs {
		if a.Lobs[n] != b.Lobs[n] {
			return "Lobs"
		}
		if a.Ones[n] != b.Ones[n] {
			return "Ones"
		}
	}
	return ""
}

func testCircuit(t testing.TB) *netlist.Circuit {
	t.Helper()
	c := netlist.New("mc")
	c.AddPI("a")
	c.AddPI("b")
	c.AddPI("s")
	c.AddFF("f1", "q1", "d1")
	c.AddFF("f2", "q2", "d2")
	c.AddGate(logic.Nand, "x", "a", "q1")
	c.AddGate(logic.Nor, "y", "x", "b")
	c.AddGate(logic.Mux2, "m", "x", "y", "s")
	c.AddGate(logic.Xor, "z", "m", "q2")
	c.AddGate(logic.Not, "d1", "z")
	c.AddGate(logic.And, "d2", "m", "b")
	c.MarkPO("z")
	c.MustFreeze()
	return c
}

// TestMCPackedObsEquivalence: the packed estimator must reproduce the
// scalar kernel bit for bit — across word- and batch-boundary sample
// counts, worker counts, and the s27 real circuit — and leave the rng in
// the same state.
func TestMCPackedObsEquivalence(t *testing.T) {
	lm := leakage.Default()
	circuits := []*netlist.Circuit{testCircuit(t), iscas.S27()}
	for _, c := range circuits {
		for _, samples := range []int{1, 63, 64, 65, 100, 255, 256, 257, 600} {
			for _, workers := range []int{1, 3} {
				r1 := rand.New(rand.NewSource(42))
				r2 := rand.New(rand.NewSource(42))
				ref, err := EstimateObserved(context.Background(), c, lm, samples, r1, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := EstimatePacked(context.Background(), c, lm, samples, r2,
					PackedOpts{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if field := obsIdentical(ref, got); field != "" {
					t.Fatalf("%s samples=%d workers=%d: %s differs",
						c.Name, samples, workers, field)
				}
				// Seed stability beyond this call: the packed kernel must
				// consume exactly the scalar kernel's random stream.
				if a, b := r1.Int63(), r2.Int63(); a != b {
					t.Fatalf("%s samples=%d: rng state diverged (%d vs %d)",
						c.Name, samples, a, b)
				}
			}
		}
	}
}

// TestMCPackedObsTelemetry: per-batch sample reports must sum to the
// request and every batch must carry 1..sim.WideLanes lanes.
func TestMCPackedObsTelemetry(t *testing.T) {
	c := testCircuit(t)
	const samples = 600
	total, batches, lanes := 0, 0, 0
	ctx, _ := probe.Open(context.Background(), func(_ *probe.Scope, ev probe.Event) {
		switch ev.Kind {
		case probe.Samples:
			total += ev.N
		case probe.MCBatch:
			if ev.Name != "obs" {
				t.Errorf("MC batch kind %q, want obs", ev.Name)
			}
			batches++
			lanes += ev.N
			if ev.N < 1 || ev.N > sim.WideLanes {
				t.Errorf("batch of %d lanes", ev.N)
			}
		}
	}, c.Name)
	_, err := EstimatePacked(ctx, c, leakage.Default(), samples,
		rand.New(rand.NewSource(8)), PackedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if total != samples || lanes != samples {
		t.Errorf("Samples %d / MCBatch lanes %d, want %d", total, lanes, samples)
	}
	if want := (samples + sim.WideLanes - 1) / sim.WideLanes; batches != want {
		t.Errorf("MCBatch fired %d times, want %d", batches, want)
	}
}

// TestEstimateDeadline: both kernels must honour an expired context
// mid-run instead of completing the estimate — the path a scanpowerd job
// deadline takes into the observability phase.
func TestEstimateDeadline(t *testing.T) {
	c := testCircuit(t)
	lm := leakage.Default()

	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, err := EstimateObserved(ctx, c, lm, 100000, rand.New(rand.NewSource(1)), func(int) {
		if calls++; calls == 2 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Errorf("scalar: err = %v, want context.Canceled", err)
	}
	if calls > 3 {
		t.Errorf("scalar kept sampling after cancel: %d progress calls", calls)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	ctx2, _ = probe.Open(ctx2, func(_ *probe.Scope, ev probe.Event) {
		if ev.Kind == probe.Samples {
			calls++
			cancel2()
		}
	}, c.Name)
	calls = 0
	_, err = EstimatePacked(ctx2, c, lm, 1<<20, rand.New(rand.NewSource(1)), PackedOpts{Workers: 2})
	if err != context.Canceled {
		t.Errorf("packed: err = %v, want context.Canceled", err)
	}

	expired, cancel3 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel3()
	if _, err := EstimatePacked(expired, c, lm, 4096, rand.New(rand.NewSource(1)),
		PackedOpts{}); err != context.DeadlineExceeded {
		t.Errorf("packed expired deadline: err = %v, want DeadlineExceeded", err)
	}
}

// TestEstimatePackedDefaults mirrors TestEstimateDefaults for the packed
// kernel: samples <= 0 falls back to 128.
func TestEstimatePackedDefaults(t *testing.T) {
	c := testCircuit(t)
	o, err := EstimatePacked(context.Background(), c, leakage.Default(), 0,
		rand.New(rand.NewSource(3)), PackedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if o.Samples != 128 {
		t.Errorf("default samples = %d, want 128", o.Samples)
	}
	if o.Mean <= 0 {
		t.Error("mean leakage should be positive")
	}
}
