package power

import (
	"math/bits"
	"time"

	"repro/internal/leakage"
	"repro/internal/scan"
	"repro/internal/sim"
)

// MeasureScanPacked is MeasureScan on the bit-parallel simulator: it
// packs consecutive scan-stream cycles into lane words — 64 per uint64,
// sim.WideLanes (256) cycles per batch — evaluates the combinational
// core once per batch with word-wide boolean operations
// over the compiled levelized program, counts toggled capacitance from
// the popcount of prev^cur per net, and resolves every gate's leakage
// state per lane from the packed words.
//
// Results are bit-identical to MeasureScan — not merely close: the
// per-cycle accumulation orders of the serial kernel (net order within a
// cycle for switched capacitance, gate order within a cycle for leakage,
// cycle order across the run) are reproduced exactly, so every float in
// the Report matches to the last ulp. The equivalence is enforced by unit
// and fuzz tests; MeasureScan is the production kernel's test oracle.
func MeasureScanPacked(ch scan.Runner, patterns []scan.Pattern, cfg scan.ShiftConfig,
	lm *leakage.Model, cm CapModel) (Report, error) {
	return MeasureScanPackedOpts(ch, patterns, cfg, lm, cm, MeasureOptions{})
}

// MeasureScanPackedOpts is MeasureScanPacked with accounting options.
func MeasureScanPackedOpts(ch scan.Runner, patterns []scan.Pattern, cfg scan.ShiftConfig,
	lm *leakage.Model, cm CapModel, opts MeasureOptions) (Report, error) {

	const lanes, ww = sim.WideLanes, sim.WideWords

	c := ch.Circuit()
	prog := sim.Compile(c)
	loads := cm.NetLoads(c)
	leakTabs := lm.CircuitTables(c)
	nNets := c.NumNets()

	// wide runs the compiled program over the flat input layout (ww words
	// per PI/FF) and returns the flat per-net lane words (ww words per
	// net).
	wide := sim.NewWideProgram(prog)

	// The capture responses run the same compiled program one lane at a
	// time (lane 0 of a private packed instance): bit 0 of every output
	// word is exactly the scalar evaluation of the same inputs, so this
	// changes nothing but the cost of the throwaway capture simulation.
	capSim := sim.NewPackedProgram(prog)
	capPI := make([]uint64, len(c.PIs))
	capPPI := make([]uint64, c.NumFFs())

	var (
		piW  = make([]uint64, len(c.PIs)*ww)
		ppiW = make([]uint64, c.NumFFs()*ww)
		lane int // cycles packed into the current batch

		// prevBit[n] is net n's value on the last cycle of the previous
		// batch (bit 0), the seed for cross-batch transition counting.
		prevBit = make([]uint64, nNets)
		primed  bool // true once the first observed cycle has been consumed

		cycDelta = make([]float64, lanes)
		cycLeak  = make([]float64, lanes)

		dynTotal, peak float64
		rawToggles     int64
		cycles         int
		leakSum        float64
		leakCycles     int
	)

	// flush evaluates the batched lanes and folds them into the running
	// sums in exactly the serial order: per lane, switched capacitance in
	// net order and leakage in gate order; across lanes, ascending cycle
	// order.
	flush := func() {
		n := lane
		if n == 0 {
			return
		}
		start := time.Now()
		words := wide.Eval(piW, ppiW)

		for t := 0; t < n; t++ {
			cycLeak[t] = 0
			cycDelta[t] = 0
		}
		lm.AccumLeakPackedW(c, words, ww, n, leakTabs, cycLeak)

		kLast := (n - 1) >> 6
		lastShift := uint((n - 1) & 63)
		for ni := 0; ni < nNets; ni++ {
			load := loads[ni]
			carry := prevBit[ni]
			for k, base := 0, 0; base < n; k, base = k+1, base+64 {
				valid := ^uint64(0)
				if rem := n - base; rem < 64 {
					valid = 1<<uint(rem) - 1
				}
				w := words[ni*ww+k] & valid
				// Toggle word: bit t set iff the net differs between
				// lane t and lane t-1 (bit 0 compares against the
				// previous word's top lane, or across batches for k=0).
				tw := (w ^ (w<<1 | carry)) & valid
				if k == 0 && !primed {
					tw &^= 1 // the first cycle ever is the priming observation
				}
				carry = w >> 63
				if tw == 0 {
					continue
				}
				rawToggles += int64(bits.OnesCount64(tw))
				cw := cycDelta[base:]
				for ; tw != 0; tw &= tw - 1 {
					cw[bits.TrailingZeros64(tw)] += load
				}
			}
			prevBit[ni] = words[ni*ww+kLast] >> lastShift & 1
		}

		first := 0
		if !primed {
			first = 1
		}
		for t := first; t < n; t++ {
			d := cycDelta[t]
			dynTotal += d
			if d > peak {
				peak = d
			}
			cycles++
		}
		for t := 0; t < n; t++ {
			leakSum += cycLeak[t]
			leakCycles++
		}

		primed = true
		lane = 0
		for i := range piW {
			piW[i] = 0
		}
		for i := range ppiW {
			ppiW[i] = 0
		}
		if opts.OnBatch != nil {
			opts.OnBatch(n, time.Since(start))
		}
	}

	observe := func(pi, ppi []bool) {
		wk, bit := lane>>6, uint(lane&63)
		for i, v := range pi {
			piW[i*ww+wk] |= b2w(v) << bit
		}
		for i, v := range ppi {
			ppiW[i*ww+wk] |= b2w(v) << bit
		}
		lane++
		if lane == lanes {
			flush()
		}
	}

	hooks := scan.Hooks{
		ShiftCycle: observe,
		Stop:       opts.stopHook(),
		Capture: opts.patternHook(func(pi, ppi []bool) []bool {
			if opts.IncludeCapture {
				observe(pi, ppi)
			}
			// The capture response is a pure function of the applied
			// inputs; a throwaway single-lane evaluation decides it
			// without disturbing the packed stream.
			for i, v := range pi {
				capPI[i] = b2w(v)
			}
			for i, v := range ppi {
				capPPI[i] = b2w(v)
			}
			vals := capSim.Eval(capPI, capPPI)
			next := make([]bool, c.NumFFs())
			for i, ff := range c.FFs {
				next[i] = vals[ff.D]&1 != 0
			}
			return next
		}),
	}
	if err := ch.Run(patterns, cfg, hooks); err != nil {
		return Report{}, err
	}
	flush() // drain the final partial batch

	var r Report
	r.Cycles = cycles
	if cycles > 0 {
		toUWHz := cm.VDD * cm.VDD / 2 * 1e-9
		r.DynamicPerHz = dynTotal / float64(cycles) * toUWHz
		r.PeakDynamicPerHz = peak * toUWHz
		r.MeanTogglesPerCycle = float64(rawToggles) / float64(cycles)
	}
	if leakCycles > 0 {
		r.MeanLeakNA = leakSum / float64(leakCycles)
		r.StaticUW = lm.PowerUW(r.MeanLeakNA)
	}
	return r, nil
}

// b2w converts a bool to a 0/1 word without a branch.
func b2w(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
