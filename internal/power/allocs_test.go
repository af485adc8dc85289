package power

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/iscas"
	"repro/internal/leakage"
	"repro/internal/scan"
)

// TestMeasureScanPackedNoSinkAllocs guards the unobserved measurement
// path: on a context that carries no probe sink, the per-pattern and
// per-batch reports must cost nothing, and the capture responses come
// from one buffer reused across 256-pattern windows, so the packed
// kernel's allocations are its fixed set-up alone. An event or a
// response that allocates shows up as growth when the pattern count
// doubles.
func TestMeasureScanPackedNoSinkAllocs(t *testing.T) {
	p, _ := iscas.ByName("s344")
	c, err := iscas.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	lm, cm := leakage.Default(), DefaultCapModel()
	pats := randomPatterns(rand.New(rand.NewSource(11)), c, 80)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := func(pats []scan.Pattern) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := MeasureScanPackedOpts(scan.New(c), pats, scan.Traditional(c), lm, cm,
				MeasureOptions{Ctx: ctx}); err != nil {
				t.Fatal(err)
			}
		})
	}
	run(pats) // warm lazily built tables
	half, full := run(pats[:40]), run(pats)
	if grown := full - half; grown > 0 {
		t.Errorf("40 more patterns cost %v more allocs/run, want 0", grown)
	}
}
