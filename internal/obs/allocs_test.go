package obs

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/leakage"
)

// TestEstimatePackedAllocsFlat guards the batch loop of the packed
// estimator: every buffer is allocated once per call, so the number of
// allocations must not depend on the sample count. A regression that
// allocates per batch shows up as the large run allocating more than the
// small one.
func TestEstimatePackedAllocsFlat(t *testing.T) {
	c := testCircuit(t)
	lm := leakage.Default()
	rng := rand.New(rand.NewSource(17))
	run := func(samples int) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := EstimatePacked(context.Background(), c, lm, samples, rng); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := run(1024)
	large := run(4096)
	if large != small {
		t.Errorf("allocs depend on samples: %v at 1024, %v at 4096", small, large)
	}
}
