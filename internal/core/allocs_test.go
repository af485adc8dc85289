package core

import (
	"testing"

	"repro/internal/netlist"
)

// TestFillPackedAllocsFlat guards the scratch reuse of the packed fill:
// once the pool is warm, the number of allocations per fillPacked call
// must not grow with the trial count — per-batch cost buffers and
// net-state words come from the pooled scratch. A regression that
// allocates per batch shows up as the large run allocating far more than
// the small one.
func TestFillPackedAllocsFlat(t *testing.T) {
	c := blockableCircuit()
	f := newTestFinder(t, c, nil)
	f.imply()
	var unassigned []netlist.NetID
	for _, n := range c.CombInputs() {
		if f.controlled[n] {
			unassigned = append(unassigned, n)
		}
	}
	if len(unassigned) == 0 {
		t.Fatal("test circuit has no controlled inputs to fill")
	}
	run := func(trials int) float64 {
		return testing.AllocsPerRun(50, func() {
			f.fillPacked(unassigned, trials)
		})
	}
	run(64) // warm the scratch pool
	small := run(256)
	large := run(4096)
	// Slack absorbs a pool entry dropped mid-measurement (a GC, or the
	// race detector's random sync.Pool drops), averaged over 50 runs;
	// per-batch allocations would exceed it by an order of magnitude.
	if large > small+16 {
		t.Errorf("allocs grew with trials: %v at 256, %v at 4096", small, large)
	}
}
