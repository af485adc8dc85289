package obs

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/probe"
	"repro/internal/sim"
)

// EstimatePacked is EstimateObserved on the 256-lane bit-parallel
// simulator: sim.WideLanes random vectors pack into lane words per net,
// the compiled combinational core evaluates once per batch, per-lane
// leakage comes from leakage.AccumLeakPackedW, and the per-line
// conditional accumulators fold through leakage.AccumLineLeakPackedW.
// Batches run one after another in buffers allocated once per call.
//
// The result is bit-identical to the scalar kernel for the same rng, not
// merely statistically equivalent — and therefore seed-stable: each
// batch's random stream is drawn in the exact serial sample order while
// packing (so the rng ends in the same state the scalar kernel leaves it
// in), each lane's leakage is summed in the scalar gate order, and the
// batches fold in ascending sample order.
//
// ctx is checked after every batch is drawn and before every fold, so a
// job deadline aborts the estimate promptly with ctx's error. Each folded
// batch is reported to ctx's probe scope as a Samples event followed by
// an "obs" MCBatch event.
func EstimatePacked(ctx context.Context, c *netlist.Circuit, lm *leakage.Model, samples int,
	rng *rand.Rand) (*Observability, error) {

	const lanes, ww = sim.WideLanes, sim.WideWords

	if samples <= 0 {
		samples = 128
	}
	sc := probe.From(ctx)
	nNets := c.NumNets()
	sum1 := make([]float64, nNets)
	cnt1 := make([]int, nNets)
	sumAll := 0.0

	leakTabs := lm.CircuitTables(c)
	eval := sim.NewWide(c)
	nPI, nFF := len(c.PIs), c.NumFFs()
	pi := make([]uint64, nPI*ww)
	ppi := make([]uint64, nFF*ww)
	cyc := make([]float64, lanes)

	for drawn := 0; drawn < samples; {
		// Draw this batch's random stream in the exact serial order the
		// scalar kernel consumes it: per sample, PI vector then PPI
		// vector, packed as lane (sample mod lanes) of the batch.
		clear(pi)
		clear(ppi)
		n := min(samples-drawn, lanes)
		for t := 0; t < n; t++ {
			wk, bit := t>>6, uint(t&63)
			for i := 0; i < nPI; i++ {
				pi[i*ww+wk] |= coin(rng) << bit
			}
			for i := 0; i < nFF; i++ {
				ppi[i*ww+wk] |= coin(rng) << bit
			}
		}
		drawn += n
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		t0 := time.Now()
		words := eval.Eval(pi, ppi)
		clear(cyc[:n])
		lm.AccumLeakPackedW(c, words, ww, n, leakTabs, cyc)
		elapsed := time.Since(t0)

		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for t := 0; t < n; t++ {
			sumAll += cyc[t]
		}
		leakage.AccumLineLeakPackedW(words, ww, n, cyc, sum1, cnt1)
		sc.Emit(probe.Event{Kind: probe.Samples, N: n})
		sc.Emit(probe.Event{Kind: probe.MCBatch, Name: "obs", N: n, Elapsed: elapsed})
	}
	return finish(nNets, samples, sumAll, sum1, cnt1), nil
}

// coin draws one fair bit from rng with the same consumption as
// sim.RandomVector (one Intn(2) per value), returning it as a 0/1 word.
func coin(rng *rand.Rand) uint64 {
	if rng.Intn(2) == 1 {
		return 1
	}
	return 0
}
