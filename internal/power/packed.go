package power

import (
	"math/bits"
	"time"

	"repro/internal/leakage"
	"repro/internal/probe"
	"repro/internal/scan"
	"repro/internal/sim"
)

// MeasureScanPacked is MeasureScan on the bit-parallel simulator: it
// packs consecutive scan-stream cycles into lane words — 64 per uint64,
// sim.WideLanes (256) cycles per batch — evaluates the combinational
// core once per batch with word-wide boolean operations
// over the compiled levelized program, counts toggled capacitance from
// the popcount of prev^cur per net, and resolves every gate's leakage
// state per lane from the packed words. When at most 8 inputs can change
// between observed cycles (scan.ShiftConfig.Varying), every distinct
// input state's leakage is evaluated once up front and each cycle looks
// its state up instead; capture responses are decided 256 patterns per
// evaluation.
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

// MeasureScanPackedOpts is MeasureScanPacked with accounting options. It
// reports each packed batch and each measured pattern to the probe scope
// opts.Ctx carries.
func MeasureScanPackedOpts(ch scan.Runner, patterns []scan.Pattern, cfg scan.ShiftConfig,
	lm *leakage.Model, cm CapModel, opts MeasureOptions) (Report, error) {

	const lanes, ww = sim.WideLanes, sim.WideWords

	sc := probe.From(opts.Ctx)
	c := ch.Circuit()
	prog := sim.Compile(c)
	loads := cm.NetLoads(c)
	leakTabs := lm.CircuitTables(c)
	nNets := c.NumNets()

	// wide runs the compiled program over the flat input layout (ww words
	// per PI/FF) and returns the flat per-net lane words (ww words per
	// net).
	wide := sim.NewWideProgram(prog)

	// Capture responses are a pure function of the pattern: at every
	// capture scan.Chain.Run and Chains.Run apply exactly (pattern.PI,
	// pattern.State). They are decided one window of 256 patterns per
	// wide evaluation; capResp[k*nFF:(k+1)*nFF] is pattern k's response
	// within the current window.
	nFF := c.NumFFs()
	capPI := make([]uint64, len(c.PIs)*ww)
	capPPI := make([]uint64, nFF*ww)
	capResp := make([]bool, lanes*nFF)

	var (
		piW  = make([]uint64, len(c.PIs)*ww)
		ppiW = make([]uint64, nFF*ww)
		lane int // cycles packed into the current batch

		// prevBit[n] is net n's value on the last cycle of the previous
		// batch (bit 0), the seed for cross-batch transition counting.
		prevBit = make([]uint64, nNets)
		primed  bool // true once the first observed cycle has been consumed

		cycDelta = make([]float64, lanes)
		cycLeak  = make([]float64, lanes)

		// varPI and varFF are the inputs that can change between
		// observed cycles; the others carry one constant for the whole
		// run, broadcast into their lane words once by prepare.
		prepared     bool
		varPI, varFF []int
		// leakOf[s] is the leakage of state s when the varying inputs
		// number at most enumBits, bit j of s being varying input j (PIs
		// first); state[t] is lane t's state. nil for larger spaces.
		leakOf []float64
		state  = make([]uint8, lanes)

		dynTotal, peak float64
		rawToggles     int64
		cycles         int
		leakSum        float64
		leakCycles     int
		pattern        int // index of the pattern being captured
	)

	// clearVarying zeroes the lane words of the varying inputs.
	clearVarying := func() {
		for _, i := range varPI {
			clear(piW[i*ww : (i+1)*ww])
		}
		for _, f := range varFF {
			clear(ppiW[f*ww : (f+1)*ww])
		}
	}

	// prepare runs on the first observed cycle (pi, ppi), after Run has
	// validated cfg: it broadcasts that cycle's values of the constant
	// inputs and, for a small state space, evaluates every state's
	// leakage once, lane s carrying state s. Each lane sums its gates in
	// the same order whichever cycle it holds, so leakOf[s] is exactly
	// the per-cycle sum of any cycle in state s.
	prepare := func(pi, ppi []bool) {
		prepared = true
		varPI, varFF = cfg.Varying(opts.IncludeCapture)
		for i, v := range pi {
			if v {
				fillOnes(piW[i*ww : (i+1)*ww])
			}
		}
		for f, v := range ppi {
			if v {
				fillOnes(ppiW[f*ww : (f+1)*ww])
			}
		}
		clearVarying()
		m := len(varPI) + len(varFF)
		if m > enumBits {
			return
		}
		nStates := 1 << m
		for s := 0; s < nStates; s++ {
			wk, bit := s>>6, uint(s&63)
			for j, i := range varPI {
				piW[i*ww+wk] |= uint64(s>>j&1) << bit
			}
			for j, f := range varFF {
				ppiW[f*ww+wk] |= uint64(s>>(len(varPI)+j)&1) << bit
			}
		}
		leakOf = make([]float64, nStates)
		lm.AccumLeakPackedW(c, wide.Eval(piW, ppiW), ww, nStates, leakTabs, leakOf)
		clearVarying()
	}

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
			cycDelta[t] = 0
		}
		if leakOf != nil {
			for t := 0; t < n; t++ {
				cycLeak[t] = leakOf[state[t]]
			}
		} else {
			for t := 0; t < n; t++ {
				cycLeak[t] = 0
			}
			lm.AccumLeakPackedW(c, words, ww, n, leakTabs, cycLeak)
		}

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
		clearVarying()
		sc.Emit(probe.Event{Kind: probe.MeasureBatch, N: n, Elapsed: time.Since(start)})
	}

	// observe packs one cycle into the batch, reading only the varying
	// inputs: the rest hold their broadcast constants.
	observe := func(pi, ppi []bool) {
		if !prepared {
			prepare(pi, ppi)
		}
		wk, bit := lane>>6, uint(lane&63)
		st := 0
		for j, i := range varPI {
			v := b2w(pi[i])
			piW[i*ww+wk] |= v << bit
			st |= int(v) << j
		}
		for j, f := range varFF {
			v := b2w(ppi[f])
			ppiW[f*ww+wk] |= v << bit
			st |= int(v) << (len(varPI) + j)
		}
		if leakOf != nil {
			state[lane] = uint8(st)
		}
		lane++
		if lane == lanes {
			flush()
		}
	}

	// captureWindow decides the responses of the up to 256 patterns
	// starting at first in one wide evaluation.
	captureWindow := func(first int) {
		clear(capPI)
		clear(capPPI)
		win := patterns[first:min(first+lanes, len(patterns))]
		for k, p := range win {
			wk, bit := k>>6, uint(k&63)
			for i, v := range p.PI {
				capPI[i*ww+wk] |= b2w(v) << bit
			}
			for i, v := range p.State {
				capPPI[i*ww+wk] |= b2w(v) << bit
			}
		}
		words := wide.Eval(capPI, capPPI)
		for k := range win {
			wk, bit := k>>6, uint(k&63)
			resp := capResp[k*nFF : (k+1)*nFF]
			for i, ff := range c.FFs {
				resp[i] = words[int(ff.D)*ww+wk]>>bit&1 != 0
			}
		}
	}

	hooks := scan.Hooks{
		ShiftCycle: observe,
		Stop:       opts.stopHook(),
		Capture: func(pi, ppi []bool) []bool {
			if opts.IncludeCapture {
				observe(pi, ppi)
			}
			k := pattern % lanes
			if k == 0 {
				captureWindow(pattern)
			}
			sc.Emit(probe.Event{Kind: probe.Pattern, N: pattern})
			pattern++
			return capResp[k*nFF : (k+1)*nFF]
		},
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

// enumBits is the largest number of varying inputs whose every state fits
// one 256-lane batch.
const enumBits = 8

// fillOnes sets every bit of ws.
func fillOnes(ws []uint64) {
	for i := range ws {
		ws[i] = ^uint64(0)
	}
}

// b2w converts a bool to a 0/1 word without a branch.
func b2w(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
