package core

import (
	"testing"

	"repro/internal/netlist"
)

// TestFillPackedAllocsFlat guards the batch loop of the packed fill:
// the net-state words and the cost buffer are allocated once per call,
// so the number of allocations per fillPacked call must not depend on the
// trial count. A regression that allocates per batch shows up as the
// large run allocating more than the small one.
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
	small := run(256)
	large := run(4096)
	if large != small {
		t.Errorf("allocs depend on trials: %v at 256, %v at 4096", small, large)
	}
}
