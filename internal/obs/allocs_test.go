package obs

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/leakage"
)

// TestEstimatePackedAllocsFlat guards the scratch reuse of the packed
// estimator: once the pool is warm, the number of allocations per call
// must not grow with the sample count — batches run entirely in pooled
// buffers. A regression that allocates per batch (or per window) shows up
// as the large run allocating far more than the small one.
func TestEstimatePackedAllocsFlat(t *testing.T) {
	c := testCircuit(t)
	lm := leakage.Default()
	rng := rand.New(rand.NewSource(17))
	run := func(samples int) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := EstimatePacked(context.Background(), c, lm, samples, rng,
				PackedOpts{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	run(64) // warm the scratch pool
	// The small run already fills the evaluation window (four 256-lane
	// batches with one worker), so a pool entry dropped mid-measurement —
	// a GC, or the race detector's random sync.Pool drops — costs both
	// runs the same rebuild.
	small := run(1024)
	large := run(4096)
	// Slack absorbs such rebuilds, averaged over 50 runs; per-batch
	// allocations would exceed it by an order of magnitude.
	if large > small+16 {
		t.Errorf("allocs grew with samples: %v at 1024, %v at 4096", small, large)
	}
}
