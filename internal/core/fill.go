package core

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// fillScratch is the reusable state of fillPacked for one circuit: the
// compiled dual-rail evaluator, the broadcast base state, per-worker
// net-state buffers, and per-batch cost buffers. A finished fill returns
// its scratch to fillPool, so repeated fills on the same circuit
// (ablations, repeated Builds) allocate nothing batch-sized.
type fillScratch struct {
	c     *netlist.Circuit
	eval  *sim.Wide3 // stateless: shared by all workers
	baseV []uint64
	baseX []uint64
	vs    [][]uint64 // per worker
	xs    [][]uint64
	cycs  [][]float64 // per batch
	lanes []int
	span  []time.Duration
}

var fillPool sync.Pool

// getFillScratch fetches pooled scratch compatible with c or builds a
// fresh one.
func getFillScratch(c *netlist.Circuit) *fillScratch {
	if s, _ := fillPool.Get().(*fillScratch); s != nil && s.c == c {
		return s
	}
	s := &fillScratch{c: c, eval: sim.NewWide3(c)}
	nw := c.NumNets() * sim.WideWords
	s.baseV = make([]uint64, nw)
	s.baseX = make([]uint64, nw)
	return s
}

// ensure grows the scratch to workers net-state buffers and nBatches
// cost buffers.
func (s *fillScratch) ensure(workers, nBatches int) {
	nw := s.c.NumNets() * sim.WideWords
	for len(s.vs) < workers {
		s.vs = append(s.vs, make([]uint64, nw))
		s.xs = append(s.xs, make([]uint64, nw))
	}
	for len(s.cycs) < nBatches {
		s.cycs = append(s.cycs, make([]float64, sim.WideLanes))
	}
	if len(s.lanes) < nBatches {
		s.lanes = make([]int, nBatches)
		s.span = make([]time.Duration, nBatches)
	}
}

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
// gate order, and (d) the reduction walks trials in ascending order with
// the scalar first-wins tie-break. Batches are sharded across a worker
// pool; the reduction is a single goroutine.
func (f *finder) fillPacked(unassigned []netlist.NetID, trials int) []logic.Value {
	best := make([]logic.Value, len(unassigned))
	if f.cancelled() {
		return best
	}
	const laneWidth, ww = sim.WideLanes, sim.WideWords
	c := f.c
	lm := f.opts.Leak
	tabs3 := lm.CircuitTables3(c)
	nWords := (trials + 63) / 64 // candidate words per input, 64 trials each
	nBatches := (trials + laneWidth - 1) / laneWidth

	// cand[i*nWords+w] bit t = input i's value in trial w*64+t. Drawn in
	// the scalar loop's exact rng order.
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

	workers := runtime.GOMAXPROCS(0)
	if workers > nBatches {
		workers = nBatches
	}
	scratch := getFillScratch(c)
	scratch.ensure(workers, nBatches)
	defer fillPool.Put(scratch)

	// The lane pattern every trial shares: committed controlled inputs
	// broadcast their binary value, everything else (free pseudo-inputs,
	// and the unassigned slots about to be overlaid) is X.
	baseV, baseX := scratch.baseV, scratch.baseX
	for i := range baseV {
		baseV[i] = 0
		baseX[i] = 0
	}
	for _, n := range c.CombInputs() {
		grp := int(n) * ww
		if f.controlled[n] && f.assign[n] != logic.X {
			if f.assign[n] == logic.One {
				for k := 0; k < ww; k++ {
					baseV[grp+k] = ^uint64(0)
				}
			}
		} else {
			for k := 0; k < ww; k++ {
				baseX[grp+k] = ^uint64(0)
			}
		}
	}

	if f.cancelled() {
		return best
	}

	// evalBatch costs batch wi on worker w's net-state buffers.
	evalBatch := func(w, wi int) {
		v, x := scratch.vs[w], scratch.xs[w]
		n := trials - wi*laneWidth
		if n > laneWidth {
			n = laneWidth
		}
		t0 := time.Now()
		copy(v, baseV)
		copy(x, baseX)
		for i, net := range unassigned {
			grp := int(net) * ww
			nw := nWords - wi*ww
			if nw > ww {
				nw = ww
			}
			copy(v[grp:grp+nw], cand[i*nWords+wi*ww:])
			for k := 0; k < ww; k++ {
				x[grp+k] = 0
			}
		}
		scratch.eval.EvalNets(v, x)
		cyc := scratch.cycs[wi]
		for t := 0; t < n; t++ {
			cyc[t] = 0
		}
		lm.AccumLeak3PackedW(c, v, x, ww, n, tabs3, cyc)
		scratch.lanes[wi] = n
		scratch.span[wi] = time.Since(t0)
	}

	if workers == 1 {
		for wi := 0; wi < nBatches; wi++ {
			evalBatch(0, wi)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for wi := range next {
					evalBatch(w, wi)
				}
			}(w)
		}
		for wi := 0; wi < nBatches; wi++ {
			next <- wi
		}
		close(next)
		wg.Wait()
	}

	// Reduce in ascending trial order — the scalar tie-break.
	bestLeak := 0.0
	bestTrial := 0
	mcb := f.opts.Observe.OnMCBatch
	for wi := 0; wi < nBatches; wi++ {
		cyc := scratch.cycs[wi]
		for t := 0; t < scratch.lanes[wi]; t++ {
			trial := wi*laneWidth + t
			if trial == 0 || cyc[t] < bestLeak {
				bestLeak = cyc[t]
				bestTrial = trial
			}
		}
		if mcb != nil {
			mcb("fill", scratch.lanes[wi], scratch.span[wi])
		}
	}
	for i := range unassigned {
		w := cand[i*nWords+bestTrial>>6]
		best[i] = logic.FromBool(w>>uint(bestTrial&63)&1 == 1)
	}
	return best
}
