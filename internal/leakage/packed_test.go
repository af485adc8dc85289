package leakage

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// TestAccumLeakPackedMatchesScalar: for every lane, the packed per-lane
// accumulation must reproduce CircuitLeakBool for that lane's per-net
// state — exactly, since both sum the same table entries in the same
// gate order.
func TestAccumLeakPackedMatchesScalar(t *testing.T) {
	c := netlist.New("mix")
	c.AddPI("a")
	c.AddPI("b")
	c.AddPI("s")
	c.AddFF("f0", "q0", "d0")
	c.AddGate(logic.Not, "n1", "a")
	c.AddGate(logic.Nand, "n2", "a", "b")
	c.AddGate(logic.Nor, "n3", "n1", "n2", "q0")
	c.AddGate(logic.Nand, "n4", "a", "b", "n1", "n3")
	c.AddGate(logic.Mux2, "d0", "n3", "n4", "s")
	c.MarkPO("d0")
	c.MustFreeze()

	m := Default()
	tabs := m.CircuitTables(c)
	rng := rand.New(rand.NewSource(11))
	words := make([]uint64, c.NumNets())
	// Random per-net words: AccumLeakPackedW only reads, so an arbitrary
	// (even combinationally inconsistent) state exercises every table row.
	for i := range words {
		words[i] = rng.Uint64()
	}
	for _, n := range []int{1, 13, 64} {
		cyc := make([]float64, n)
		m.AccumLeakPackedW(c, words, 1, n, tabs, cyc)
		state := make([]bool, c.NumNets())
		for lane := 0; lane < n; lane++ {
			for i := range state {
				state[i] = words[i]>>uint(lane)&1 == 1
			}
			want := m.CircuitLeakBool(c, state)
			if cyc[lane] != want {
				t.Fatalf("n=%d lane %d: packed %v, scalar %v", n, lane, cyc[lane], want)
			}
		}
	}
}
