package obs

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// PackedOpts tunes EstimatePacked. The zero value is a good default.
type PackedOpts struct {
	// Workers bounds the evaluation pool; values < 1 mean GOMAXPROCS.
	Workers int
	// OnSamples, when non-nil, receives the number of vectors folded into
	// the estimate since its previous call — once per packed batch, from
	// the reducing goroutine, so it need not be safe for concurrent use.
	OnSamples func(n int)
	// OnBatch, when non-nil, fires once per packed batch with its lane
	// count and evaluation wall time, also from the reducing goroutine.
	// It feeds the telemetry layer's mc-batch spans and lane counters.
	OnBatch func(lanes int, elapsed time.Duration)
}

// estSlot is one in-flight batch: inputs drawn serially on the main
// goroutine, evaluated by a worker, folded in order by the reducer.
type estSlot struct {
	pi, ppi []uint64  // packed input lane groups (sim.WideWords words per input)
	n       int       // lanes carried (== the lane width except the tail)
	words   []uint64  // per-net lane groups after evaluation
	cyc     []float64 // per-lane circuit leakage
	elapsed time.Duration
}

// estScratch is the reusable state of EstimatePacked for one circuit: the
// compiled program, per-worker simulators, and the batch slots. A
// finished run returns its scratch to estPool so repeated estimates on
// the same circuit allocate nothing batch-sized.
type estScratch struct {
	c     *netlist.Circuit
	prog  *sim.Program
	slots []*estSlot
	evals []*sim.Wide
}

var estPool sync.Pool

// getEstScratch fetches pooled scratch compatible with c or builds a
// fresh one. An incompatible pooled entry is simply dropped.
func getEstScratch(c *netlist.Circuit) *estScratch {
	if s, _ := estPool.Get().(*estScratch); s != nil && s.c == c {
		return s
	}
	return &estScratch{c: c, prog: sim.Compile(c)}
}

// ensure grows the scratch to hold window slots and workers evaluators.
func (s *estScratch) ensure(window, workers int) {
	c, ww := s.c, sim.WideWords
	for len(s.slots) < window {
		s.slots = append(s.slots, &estSlot{
			pi:    make([]uint64, len(c.PIs)*ww),
			ppi:   make([]uint64, c.NumFFs()*ww),
			words: make([]uint64, c.NumNets()*ww),
			cyc:   make([]float64, sim.WideLanes),
		})
	}
	for len(s.evals) < workers {
		s.evals = append(s.evals, sim.NewWideProgram(s.prog))
	}
}

// EstimatePacked is EstimateObserved on the 256-lane bit-parallel
// simulator: sim.WideLanes random vectors pack into lane words per net,
// the compiled combinational core evaluates once per batch, per-lane
// leakage comes from leakage.AccumLeakPackedW, and the per-line
// conditional accumulators fold through leakage.AccumLineLeakPackedW.
// Batches are sharded across a worker pool.
//
// The result is bit-identical to the scalar kernel for the same rng, not
// merely statistically equivalent — and therefore seed-stable: the
// random stream is drawn in the exact serial sample order while packing
// (so the rng ends in the same state the scalar kernel leaves it in),
// each lane's leakage is summed in the scalar gate order, and the reducer
// folds batches in ascending sample order on a single goroutine. Workers
// only ever evaluate; they never touch the global accumulators.
//
// ctx is checked before every batch is drawn and before every fold, so a
// job deadline aborts the estimate promptly with ctx's error.
func EstimatePacked(ctx context.Context, c *netlist.Circuit, lm *leakage.Model, samples int,
	rng *rand.Rand, opts PackedOpts) (*Observability, error) {

	const lanes, ww = sim.WideLanes, sim.WideWords

	if samples <= 0 {
		samples = 128
	}
	nNets := c.NumNets()
	sum1 := make([]float64, nNets)
	cnt1 := make([]int, nNets)
	sumAll := 0.0

	nBatches := (samples + lanes - 1) / lanes
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nBatches {
		workers = nBatches
	}

	// The per-gate tables are resolved once, before the pool starts, so
	// the workers share them read-only.
	leakTabs := lm.CircuitTables(c)

	// A bounded window of reusable slots keeps memory flat however many
	// samples are requested: draw a window serially, evaluate it in
	// parallel, fold it in order, repeat.
	window := workers * 4
	if window > nBatches {
		window = nBatches
	}
	scratch := getEstScratch(c)
	scratch.ensure(window, workers)
	defer estPool.Put(scratch)
	slots := scratch.slots

	// evalSlot runs one batch on evaluator w: compiled-program pass plus
	// per-lane leakage accumulation.
	evalSlot := func(w int, s *estSlot) {
		t0 := time.Now()
		words := scratch.evals[w].Eval(s.pi, s.ppi)
		copy(s.words, words)
		for t := 0; t < s.n; t++ {
			s.cyc[t] = 0
		}
		lm.AccumLeakPackedW(c, s.words, ww, s.n, leakTabs, s.cyc)
		s.elapsed = time.Since(t0)
	}

	// The worker pool is spawned once for the whole run; each window
	// dispatches its live slots and waits. With a single worker the
	// batches run inline on this goroutine instead.
	var (
		wg   sync.WaitGroup
		next chan int
	)
	if workers > 1 {
		next = make(chan int)
		defer close(next)
		for w := 0; w < workers; w++ {
			go func(w int) {
				for bi := range next {
					evalSlot(w, slots[bi])
					wg.Done()
				}
			}(w)
		}
	}

	nPI, nFF := len(c.PIs), c.NumFFs()
	drawn := 0 // samples drawn so far
	for start := 0; start < nBatches; start += window {
		end := start + window
		if end > nBatches {
			end = nBatches
		}
		live := end - start

		// Draw this window's random stream in the exact serial order the
		// scalar kernel consumes it: per sample, PI vector then PPI
		// vector, packed as lane (sample mod lanes) of its batch.
		for bi := 0; bi < live; bi++ {
			s := slots[bi]
			for i := range s.pi {
				s.pi[i] = 0
			}
			for i := range s.ppi {
				s.ppi[i] = 0
			}
			n := samples - drawn
			if n > lanes {
				n = lanes
			}
			s.n = n
			for t := 0; t < n; t++ {
				wk, bit := t>>6, uint(t&63)
				for i := 0; i < nPI; i++ {
					s.pi[i*ww+wk] |= coin(rng) << bit
				}
				for i := 0; i < nFF; i++ {
					s.ppi[i*ww+wk] |= coin(rng) << bit
				}
			}
			drawn += n
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// Evaluate the window's batches across the pool. Worker 0 is this
		// goroutine.
		if workers == 1 {
			for bi := 0; bi < live; bi++ {
				evalSlot(0, slots[bi])
			}
		} else {
			wg.Add(live)
			for bi := 0; bi < live; bi++ {
				next <- bi
			}
			wg.Wait()
		}

		// Fold in ascending batch order — the scalar sample order.
		for bi := 0; bi < live; bi++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s := slots[bi]
			for t := 0; t < s.n; t++ {
				sumAll += s.cyc[t]
			}
			leakage.AccumLineLeakPackedW(s.words, ww, s.n, s.cyc, sum1, cnt1)
			if opts.OnSamples != nil {
				opts.OnSamples(s.n)
			}
			if opts.OnBatch != nil {
				opts.OnBatch(s.n, s.elapsed)
			}
		}
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
