package core

import (
	"time"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/probe"
	"repro/internal/sim"
)

// fillPacked runs the minimum-leakage search many trials at a time on the
// 256-lane dual-rail three-valued simulator: each trial is one lane, free
// pseudo-inputs stay X in every lane, and per-lane costs come from the
// X-averaged tables in the scalar gate order.
//
// It is bit-identical to the serial reference search (fillScalar, kept
// as the test oracle: one random completion per trial, implied and
// costed in place) because (a) the candidate bits are drawn up front in
// the scalar loop's exact rng order — trial 0 under the observability
// directive takes the preferred-value vector and draws nothing, (b) the
// packed dual-rail lanes equal logic.Eval on the same inputs, (c)
// leakage.AccumLeak3PackedW accumulates each lane in CircuitLeakTabs3's
// gate order, and (d) the batches run in ascending trial order with the
// scalar first-wins tie-break. One net-state buffer pair serves every
// batch.
func (f *finder) fillPacked(unassigned []netlist.NetID, trials int) []logic.Value {
	best := make([]logic.Value, len(unassigned))
	if f.cancelled() {
		return best
	}
	const laneWidth, ww = sim.WideLanes, sim.WideWords
	c := f.c
	lm := f.opts.Leak
	tabs3 := lm.CircuitTables3(c)
	nBatches := (trials + laneWidth - 1) / laneWidth
	nWords := nBatches * ww // candidate words per input, 64 trials each

	// cand[i*nWords+w] bit t = input i's value in trial w*64+t. Drawn in
	// the scalar loop's exact rng order; bits past the last trial stay 0.
	cand := make([]uint64, len(unassigned)*nWords)
	for trial := 0; trial < trials; trial++ {
		w := trial >> 6
		bit := uint64(1) << uint(trial&63)
		for i, n := range unassigned {
			var one bool
			if trial == 0 && f.ob != nil {
				one = f.ob.PreferredValue(n)
			} else {
				one = f.rng.Intn(2) == 1
			}
			if one {
				cand[i*nWords+w] |= bit
			}
		}
	}

	// The lane pattern every trial shares: committed controlled inputs
	// broadcast their binary value, everything else is X, except the
	// unassigned inputs, which are binary and overlaid per batch below.
	// EvalNets rewrites only gate outputs, so the inputs are set up once.
	eval := sim.NewWide3(c)
	v := make([]uint64, c.NumNets()*ww)
	x := make([]uint64, len(v))
	for _, n := range c.CombInputs() {
		grp := int(n) * ww
		if f.controlled[n] && f.assign[n] != logic.X {
			if f.assign[n] == logic.One {
				for k := 0; k < ww; k++ {
					v[grp+k] = ^uint64(0)
				}
			}
		} else {
			for k := 0; k < ww; k++ {
				x[grp+k] = ^uint64(0)
			}
		}
	}
	for _, n := range unassigned {
		clear(x[int(n)*ww : int(n)*ww+ww])
	}
	cyc := make([]float64, laneWidth)

	if f.cancelled() {
		return best
	}

	bestLeak := 0.0
	bestTrial := 0
	for wi := 0; wi < nBatches; wi++ {
		n := min(trials-wi*laneWidth, laneWidth)
		t0 := time.Now()
		for i, net := range unassigned {
			grp := int(net) * ww
			copy(v[grp:grp+ww], cand[i*nWords+wi*ww:])
		}
		eval.EvalNets(v, x)
		clear(cyc[:n])
		lm.AccumLeak3PackedW(c, v, x, ww, n, tabs3, cyc)
		f.probe.Emit(probe.Event{Kind: probe.MCBatch, Name: "fill", N: n, Elapsed: time.Since(t0)})

		// Ascending trial order — the scalar tie-break.
		for t := 0; t < n; t++ {
			if trial := wi*laneWidth + t; trial == 0 || cyc[t] < bestLeak {
				bestLeak = cyc[t]
				bestTrial = trial
			}
		}
	}
	for i := range unassigned {
		w := cand[i*nWords+bestTrial>>6]
		best[i] = logic.FromBool(w>>uint(bestTrial&63)&1 == 1)
	}
	return best
}
