package leakage

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// buildMixed returns a frozen circuit exercising every table arity the
// fill path meets: 1-, 2- and 3-input cells including a MUX2.
func buildMixed(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("mixed")
	c.AddPI("a")
	c.AddPI("b")
	c.AddPI("s")
	c.AddFF("f", "q", "d")
	c.AddGate(logic.Nand, "x", "a", "q")
	c.AddGate(logic.Nor, "y", "x", "b")
	c.AddGate(logic.Not, "ny", "y")
	c.AddGate(logic.Mux2, "m", "x", "ny", "s")
	c.AddGate(logic.And, "w", "a", "b", "m")
	c.AddGate(logic.Nand, "d", "w", "s")
	c.MarkPO("m")
	c.MustFreeze()
	return c
}

// TestCircuitLeakTabs3Identical: the table fast path must reproduce
// CircuitLeak to the last bit on random three-valued states — including
// all-X and all-binary extremes.
func TestCircuitLeakTabs3Identical(t *testing.T) {
	c := buildMixed(t)
	m := Default()
	tabs3 := m.CircuitTables3(c)
	rng := rand.New(rand.NewSource(3)) //nolint (deterministic test stream)
	state := make([]logic.Value, c.NumNets())
	for iter := 0; iter < 200; iter++ {
		for i := range state {
			state[i] = logic.Value(rng.Intn(3))
		}
		if iter == 0 {
			for i := range state {
				state[i] = logic.X
			}
		}
		if iter == 1 {
			for i := range state {
				state[i] = logic.FromBool(i%2 == 0)
			}
		}
		want := m.CircuitLeak(c, state)
		got := m.CircuitLeakTabs3(c, state, tabs3)
		if got != want {
			t.Fatalf("iter %d: tabs3 %v, reference %v", iter, got, want)
		}
	}
}

// TestAccumLeak3PackedMatchesScalar: each lane total of the packed
// three-valued accumulator must equal CircuitLeak on the lane's unpacked
// state, bit for bit.
func TestAccumLeak3PackedMatchesScalar(t *testing.T) {
	c := buildMixed(t)
	m := Default()
	tabs3 := m.CircuitTables3(c)
	rng := rand.New(rand.NewSource(7))
	nNets := c.NumNets()
	v := make([]uint64, nNets)
	x := make([]uint64, nNets)
	lanes := make([][]logic.Value, 64)
	for tl := 0; tl < 64; tl++ {
		lanes[tl] = make([]logic.Value, nNets)
		for n := 0; n < nNets; n++ {
			val := logic.Value(rng.Intn(3))
			lanes[tl][n] = val
			sim.PackValue(&v[n], &x[n], tl, val)
		}
	}
	for _, n := range []int{1, 13, 64} {
		cyc := make([]float64, 64)
		m.AccumLeak3PackedW(c, v, x, 1, n, tabs3, cyc)
		for tl := 0; tl < n; tl++ {
			want := m.CircuitLeak(c, lanes[tl])
			if cyc[tl] != want {
				t.Fatalf("n=%d lane %d: packed %v, scalar %v", n, tl, cyc[tl], want)
			}
		}
		for tl := n; tl < 64; tl++ {
			if cyc[tl] != 0 {
				t.Fatalf("n=%d: lane %d beyond batch accumulated %v", n, tl, cyc[tl])
			}
		}
	}
}

// TestAccumLineLeakPacked: the per-line conditional accumulator must
// reproduce the scalar per-sample loop — same sums in the same per-net
// addition order, lanes beyond the batch excluded.
func TestAccumLineLeakPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const nNets = 17
	for _, n := range []int{1, 31, 64} {
		words := make([]uint64, nNets)
		cyc := make([]float64, 64)
		for i := range words {
			words[i] = rng.Uint64()
		}
		for t := range cyc {
			cyc[t] = rng.Float64() * 1000
		}
		sum1 := make([]float64, nNets)
		cnt1 := make([]int, nNets)
		AccumLineLeakPackedW(words, 1, n, cyc, sum1, cnt1)

		wantSum := make([]float64, nNets)
		wantCnt := make([]int, nNets)
		for tl := 0; tl < n; tl++ {
			for ni := 0; ni < nNets; ni++ {
				if words[ni]>>uint(tl)&1 == 1 {
					wantSum[ni] += cyc[tl]
					wantCnt[ni]++
				}
			}
		}
		for ni := 0; ni < nNets; ni++ {
			if sum1[ni] != wantSum[ni] || cnt1[ni] != wantCnt[ni] {
				t.Fatalf("n=%d net %d: packed (%v,%d), scalar (%v,%d)",
					n, ni, sum1[ni], cnt1[ni], wantSum[ni], wantCnt[ni])
			}
		}
	}
}

// TestCircuitTables3SharedAcrossGates: gates of the same cell share one
// averaged table (no per-gate rebuild).
func TestCircuitTables3SharedAcrossGates(t *testing.T) {
	c := netlist.New("share")
	c.AddPI("a")
	c.AddPI("b")
	c.AddGate(logic.Nand, "x", "a", "b")
	c.AddGate(logic.Nand, "y", "b", "a")
	c.MarkPO("x")
	c.MarkPO("y")
	c.MustFreeze()
	m := Default()
	tabs3 := m.CircuitTables3(c)
	if &tabs3[0][0] != &tabs3[1][0] {
		t.Error("identical cells received distinct averaged tables")
	}
	if len(tabs3[0]) != 16 {
		t.Errorf("NAND2 averaged table has %d entries, want 16", len(tabs3[0]))
	}
}
