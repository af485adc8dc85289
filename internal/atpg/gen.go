package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/testability"
)

// FillMode chooses how don't-care bits of deterministic patterns are
// completed. Fill strategy is a classic test-power lever: random fill
// maximizes coverage-per-pattern (more fortuitous detections), while
// adjacent fill (repeat the previous specified bit along the scan chain,
// "MT-fill") minimizes the transitions the pattern drags through the
// chain during shifting.
type FillMode int

// Fill modes.
const (
	// FillRandom completes don't-cares with random bits (default).
	FillRandom FillMode = iota
	// FillZero ties don't-cares low.
	FillZero
	// FillOne ties don't-cares high.
	FillOne
	// FillAdjacent repeats the last specified value along the scan order
	// (minimum-transition fill). Adjacency is chain adjacency: each chain
	// of the configured partition (Options.FillChains) is filled
	// independently in chain-position order, and cells before a chain's
	// first specified bit take that bit's value, so no spurious
	// transition enters from the padding.
	FillAdjacent
)

// Options tunes Generate.
type Options struct {
	// Fill chooses the don't-care completion strategy for deterministic
	// patterns (the random phase is unaffected: its patterns are fully
	// random by construction).
	Fill FillMode
	// FillChains tells FillAdjacent how the flops are partitioned into
	// scan chains: the round-robin partition scan.NewChains(c, n) builds
	// (0 or 1 = a single chain in flop-index order).
	FillChains int
	// MaxBacktracks bounds each PODEM run (default 64).
	MaxBacktracks int
	// MaxRandomPatterns bounds the random-pattern phase (default 512).
	MaxRandomPatterns int
	// RandomStall ends the random phase after this many consecutive
	// useless patterns (default 32).
	RandomStall int
	// MaxPodemFaults caps how many residual faults the deterministic
	// phase attempts (0 = all). Faults beyond the cap count as aborted.
	MaxPodemFaults int
	// NDetect asks that each fault be detected by at least N patterns
	// (0 or 1 = classic single detection). Higher N improves unmodeled
	// defect coverage at the cost of a larger pattern set.
	NDetect int
	// Compact enables reverse-order static compaction (default on in
	// DefaultOptions).
	Compact bool
	// UseSCOAP steers PODEM's backtrace with SCOAP controllability
	// (default on in DefaultOptions).
	UseSCOAP bool
	// Workers sets the fault-parallel PODEM worker count for the
	// deterministic phase (0 or 1 = serial). The result is bit-identical
	// for every value: workers only run the rng-free PODEM searches
	// speculatively, while patterns are committed, filled, and credited
	// on one goroutine in canonical fault order.
	Workers int
	// Seed drives random fill and the random phase; runs are fully
	// deterministic for a given seed.
	Seed int64
}

// DefaultOptions returns the settings used by all experiments.
func DefaultOptions() Options {
	return Options{
		MaxBacktracks:     64,
		MaxRandomPatterns: 512,
		RandomStall:       32,
		Compact:           true,
		UseSCOAP:          true,
		Seed:              1,
	}
}

// Result is the outcome of test generation.
type Result struct {
	// Patterns is the compacted test set in application order.
	Patterns []scan.Pattern
	// Faults is the full fault list; Detected[i] tells whether Faults[i]
	// is covered by Patterns, and DetCounts[i] by how many patterns (up
	// to Options.NDetect, where counting stops).
	Faults    []Fault
	Detected  []bool
	DetCounts []int
	// Untestable counts faults proven redundant; Aborted counts faults on
	// which PODEM hit its backtrack limit.
	Untestable int
	Aborted    int
	// Backtracks is the total PODEM backtrack count across all
	// deterministic runs — the search-effort figure observability hooks
	// report.
	Backtracks int
}

// DetectedCount returns the number of detected faults.
func (r *Result) DetectedCount() int {
	n := 0
	for _, d := range r.Detected {
		if d {
			n++
		}
	}
	return n
}

// Coverage returns detected / (total - untestable), the standard fault
// coverage figure, in [0,1].
func (r *Result) Coverage() float64 {
	den := len(r.Faults) - r.Untestable
	if den <= 0 {
		return 1
	}
	return float64(r.DetectedCount()) / float64(den)
}

// Generate produces a stuck-at test set for the frozen circuit c.
func Generate(c *netlist.Circuit, opts Options) (*Result, error) {
	return GenerateContext(context.Background(), c, opts)
}

// GenerateContext is Generate with cancellation: the random-pattern phase
// checks ctx between 64-lane batches, the deterministic phase between
// PODEM fault targets and compaction between 256-pattern chunks, so an
// oversized run can be aborted promptly. The returned error is ctx.Err()
// when the context ends the run.
func GenerateContext(ctx context.Context, c *netlist.Circuit, opts Options) (*Result, error) {
	return GenerateObserved(ctx, c, opts, Observer{})
}

// GenerateObserved is GenerateContext with a telemetry Observer: per-fault
// PODEM outcomes, random-phase batches, packed fault-simulation flushes,
// and phase wall times flow to ob's callbacks as they happen. A zero
// Observer adds no work and no allocations to the generation hot paths.
func GenerateObserved(ctx context.Context, c *netlist.Circuit, opts Options, ob Observer) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !c.Frozen() {
		return nil, fmt.Errorf("atpg: circuit %s must be frozen", c.Name)
	}
	if opts.MaxBacktracks <= 0 {
		opts.MaxBacktracks = 64
	}
	if opts.MaxRandomPatterns < 0 {
		opts.MaxRandomPatterns = 0
	}
	if opts.RandomStall <= 0 {
		opts.RandomStall = 32
	}
	if opts.NDetect < 1 {
		opts.NDetect = 1
	}
	fillChains, err := scan.NewChains(c, max(1, opts.FillChains))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	faults := AllFaults(c)
	detected := make([]bool, len(faults))
	detCount := make([]int, len(faults))

	nPI, nFF := len(c.PIs), c.NumFFs()
	var patterns []scan.Pattern

	// Phase 1: random patterns, 64 lanes at a time on the bit-parallel
	// fault simulator. A fault's detection is credited to the
	// lowest-indexed detecting lane, and only credited patterns are kept.
	// Stall accounting is per pattern, exactly as a serial generator
	// processing the same rng stream would count it: every uncredited
	// pattern bumps the consecutive-useless counter, every credited one
	// resets it, and the batch is cut at the pattern where the threshold
	// trips.
	stopRandom := ob.phaseTimer("random")
	fs64 := NewFaultSimW(c, sim.PackedLanes)
	stall := 0
	batch := make([]scan.Pattern, 0, 64)
	type randHit struct {
		fault int
		mask  uint64
	}
	var hits []randHit
	for tries := 0; tries < opts.MaxRandomPatterns && stall < opts.RandomStall; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bsize := opts.MaxRandomPatterns - tries
		if bsize > 64 {
			bsize = 64
		}
		batch = batch[:0]
		for len(batch) < bsize {
			p := scan.Pattern{PI: make([]bool, nPI), State: make([]bool, nFF)}
			randFill(rng, p.PI)
			randFill(rng, p.State)
			batch = append(batch, p)
		}
		fs64.SetPatterns(batch)
		// Pass 1: detection masks, and the lanes serial in-order crediting
		// would award (per fault: the lowest lanes up to its quota).
		hits = hits[:0]
		credited := uint64(0)
		for i, f := range faults {
			if detCount[i] >= opts.NDetect {
				continue
			}
			mask := fs64.DetectMask(f)[0]
			if mask == 0 {
				continue
			}
			hits = append(hits, randHit{i, mask})
			m, quota := mask, opts.NDetect-detCount[i]
			for m != 0 && quota > 0 {
				low := m & (-m)
				credited |= low
				m &^= low
				quota--
			}
		}
		// Pass 2: walk the lanes in pattern order counting consecutive
		// uncredited patterns; the phase ends at the pattern where the
		// stall threshold trips, not at the batch boundary.
		limit := bsize
		for lane := 0; lane < bsize; lane++ {
			if credited&(1<<lane) != 0 {
				stall = 0
			} else {
				stall++
				if stall >= opts.RandomStall {
					limit = lane + 1
					break
				}
			}
		}
		// Pass 3: apply credits from the surviving prefix only. A lane
		// below the cut is credited here iff pass 1 credited it: per
		// fault, the credited lanes are the lowest bits of its mask, so
		// restricting to a prefix keeps exactly the serial credits.
		prefix := lowLanes(limit)
		newDet := 0
		for _, h := range hits {
			m := h.mask & prefix
			if m == 0 {
				continue
			}
			for m != 0 && detCount[h.fault] < opts.NDetect {
				low := m & (-m)
				m &^= low
				detCount[h.fault]++
			}
			detected[h.fault] = true
			newDet++
		}
		for lane := 0; lane < limit; lane++ {
			if credited&(1<<lane) != 0 {
				patterns = append(patterns, batch[lane])
			}
		}
		tries += limit
		if ob.OnRandomBatch != nil {
			ob.OnRandomBatch(limit, newDet)
		}
	}
	stopRandom(len(patterns))

	// Phase 2: deterministic PODEM for the residue. Fault dropping is
	// batched: deterministic patterns accumulate in a ≤64-slot buffer and
	// one packed DetectAllMask pass credits them against every residual
	// fault when the buffer fills (or the phase ends), replacing the
	// serial per-pattern sweep. With Workers > 1 the PODEM searches
	// themselves run speculatively on a fault-parallel scheduler; every
	// credit, fill, and rng draw stays on this goroutine in canonical
	// fault order, so the result is bit-identical to the serial schedule.
	res := &Result{Faults: faults, Detected: detected, DetCounts: detCount}
	var scoap *testability.Analysis
	if opts.UseSCOAP {
		scoap = testability.Compute(c)
	}
	stopPodem := ob.phaseTimer("podem")

	var residual []int
	for i := range faults {
		if detCount[i] < opts.NDetect {
			residual = append(residual, i)
		}
	}
	env := newPodemEnv(c, scoap, opts.MaxBacktracks)
	inline := env.newPodem(false)
	var sched *podemScheduler
	if opts.Workers > 1 && len(residual) > 1 {
		sched = newPodemScheduler(env, faults, residual, opts.Workers, ob)
		defer sched.shutdown()
	}

	verify := NewFaultSim(c)
	pending := make([]scan.Pattern, 0, 64)
	flush := func() {
		if len(pending) == 0 {
			return
		}
		var t0 time.Time
		if ob.OnFaultSimBatch != nil {
			t0 = time.Now()
		}
		fs64.SetPatterns(pending)
		credited := fs64.DetectAllMask(faults, detCount, detected, opts.NDetect)[0]
		for lane := range pending {
			if credited&(1<<lane) != 0 {
				patterns = append(patterns, pending[lane])
			}
		}
		if ob.OnFaultSimBatch != nil {
			ob.OnFaultSimBatch("drop", len(pending), time.Since(t0))
		}
		pending = pending[:0]
		if sched != nil {
			sched.publishSaturation(detCount, opts.NDetect)
		}
	}

	attempted := 0
	capped := false
	for r, i := range residual {
		if len(pending) == 64 {
			flush()
		}
		if detCount[i] >= opts.NDetect {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.MaxPodemFaults > 0 && attempted >= opts.MaxPodemFaults {
			if !capped {
				capped = true
				if sched != nil {
					sched.stop()
				}
				// Classify the capped tail against the up-to-date fault
				// status, not a buffer-stale one.
				flush()
				if detCount[i] >= opts.NDetect {
					continue
				}
			}
			if !detected[i] {
				res.Aborted++
			}
			if ob.OnPodemFault != nil {
				ob.OnPodemFault(faults[i], PodemSkipped, 0)
			}
			continue
		}
		attempted++
		var att podemAttempt
		if sched != nil {
			var err error
			if att, err = sched.attempt(r, i, inline); err != nil {
				return nil, err
			}
		} else {
			st := inline.run(faults[i])
			att = podemAttempt{status: st, backtracks: inline.backtracks, assign: inline.assign}
		}
		res.Backtracks += att.backtracks
		if ob.OnPodemFault != nil {
			ob.OnPodemFault(faults[i], podemOutcomeOf(att.status), att.backtracks)
		}
		switch att.status {
		case podemSuccess:
			buffered := 0
			for detCount[i]+buffered < opts.NDetect {
				if len(pending) == 64 {
					flush()
					buffered = 0
					continue
				}
				pat := extractPattern(c, att.assign, rng, opts.Fill, fillChains.Groups)
				// The X-fill must not mask the target fault — PODEM left
				// the detecting assignment in place, so a miss indicates a
				// bug; flag it loudly rather than silently losing coverage.
				verify.SetPattern(pat.PI, pat.State)
				if !verify.Detects(faults[i]) {
					return nil, fmt.Errorf("atpg: internal: PODEM pattern misses its target fault %s",
						faults[i].Name(c))
				}
				pending = append(pending, pat)
				buffered++
			}
		case podemUntestable:
			res.Untestable++
		case podemAborted:
			res.Aborted++
		}
	}
	flush()
	if sched != nil {
		if err := sched.shutdown(); err != nil {
			return nil, err
		}
	}
	stopPodem(len(patterns))

	// Phase 3: reverse-order static compaction (quota-aware for NDetect),
	// batched sim.WideLanes patterns per packed pass.
	stopCompact := ob.phaseTimer("compact")
	if opts.Compact && len(patterns) > 1 {
		var t0 time.Time
		if ob.OnFaultSimBatch != nil {
			t0 = time.Now()
		}
		n := len(patterns)
		var err error
		if patterns, err = compact(ctx, c, patterns, faults, opts.NDetect); err != nil {
			return nil, err
		}
		if ob.OnFaultSimBatch != nil {
			ob.OnFaultSimBatch("compact", n, time.Since(t0))
		}
	}
	stopCompact(len(patterns))
	res.Patterns = patterns
	return res, nil
}

// lowLanes returns the mask of the n lowest lanes.
func lowLanes(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<n - 1
}

// podemOutcomeOf maps the internal search status to the observer enum.
func podemOutcomeOf(s podemStatus) PodemOutcome {
	switch s {
	case podemSuccess:
		return PodemDetected
	case podemUntestable:
		return PodemUntestableFault
	default:
		return PodemAbortedFault
	}
}

func randFill(rng *rand.Rand, dst []bool) {
	for i := range dst {
		dst[i] = rng.Intn(2) == 1
	}
}

// extractPattern splits PODEM's input assignment (in CombInputs order)
// into PI/state parts and completes don't-cares per the fill mode.
// FillAdjacent fills the scan state per chain of chains (each listing its
// flops in chain-position order, as scan.Chains.Groups does): within a
// chain the last specified value is carried forward, and the cells before
// the first specified bit take that bit's value so the leading padding
// causes no transition. PI don't-cares (which never shift through a
// chain) carry forward in PI order from a zero seed.
func extractPattern(c *netlist.Circuit, assign []logic.Value, rng *rand.Rand, mode FillMode, chains [][]int) scan.Pattern {
	nPI := len(c.PIs)
	pat := scan.Pattern{PI: make([]bool, nPI), State: make([]bool, c.NumFFs())}
	last := false
	for i := 0; i < nPI; i++ {
		v := assign[i]
		var b bool
		switch {
		case v.IsBinary():
			b = v.Bool()
			last = b
		case mode == FillZero:
			b = false
		case mode == FillOne:
			b = true
		case mode == FillAdjacent:
			b = last
		default:
			b = rng.Intn(2) == 1
		}
		pat.PI[i] = b
	}
	if mode != FillAdjacent {
		for f := 0; f < c.NumFFs(); f++ {
			v := assign[nPI+f]
			var b bool
			switch {
			case v.IsBinary():
				b = v.Bool()
			case mode == FillZero:
				b = false
			case mode == FillOne:
				b = true
			default:
				b = rng.Intn(2) == 1
			}
			pat.State[f] = b
		}
		return pat
	}
	for _, chain := range chains {
		firstPos := -1
		for pos, f := range chain {
			if assign[nPI+f].IsBinary() {
				firstPos = pos
				break
			}
		}
		if firstPos == -1 {
			for _, f := range chain {
				pat.State[f] = false
			}
			continue
		}
		carry := assign[nPI+chain[firstPos]].Bool()
		for pos := 0; pos < firstPos; pos++ {
			pat.State[chain[pos]] = carry
		}
		for pos := firstPos; pos < len(chain); pos++ {
			f := chain[pos]
			if v := assign[nPI+f]; v.IsBinary() {
				carry = v.Bool()
			}
			pat.State[f] = carry
		}
	}
	return pat
}

// compact re-fault-simulates the patterns in reverse order,
// sim.WideLanes patterns per packed pass, and keeps only those that
// detect a fault not already covered (to its quota) by a kept pattern.
// Lane 0 of each chunk is the latest unprocessed pattern and
// DetectAllMask credits lowest lanes first, so the kept set is
// bit-identical to the serial reverse sweep. ctx is checked before each
// chunk; once it is done compact returns its error.
func compact(ctx context.Context, c *netlist.Circuit, patterns []scan.Pattern, faults []Fault, nDetect int) ([]scan.Pattern, error) {
	if nDetect < 1 {
		nDetect = 1
	}
	fs := NewFaultSimW(c, sim.WideLanes)
	width := fs.LaneWidth()
	seen := make([]int, len(faults))
	kept := make([]scan.Pattern, 0, len(patterns))
	buf := make([]scan.Pattern, 0, width)
	for end := len(patterns); end > 0; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := end
		if n > width {
			n = width
		}
		buf = buf[:0]
		for k := 0; k < n; k++ {
			buf = append(buf, patterns[end-1-k])
		}
		fs.SetPatterns(buf)
		credited := fs.DetectAllMask(faults, seen, nil, nDetect)
		for k := 0; k < n; k++ {
			if credited[k>>6]>>uint(k&63)&1 != 0 {
				kept = append(kept, buf[k])
			}
		}
		end -= n
	}
	// Restore application order.
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}
	return kept, nil
}

// CoverageOf fault-simulates an arbitrary pattern set from scratch —
// sim.WideLanes patterns per packed pass — and returns its fault
// coverage over AllFaults(c). Used to demonstrate that a DFT
// modification leaves coverage unchanged. Detection is a per-pattern
// property, so the batch width does not affect the result.
func CoverageOf(c *netlist.Circuit, patterns []scan.Pattern) float64 {
	faults := AllFaults(c)
	if len(faults) == 0 {
		return 1
	}
	detected := make([]bool, len(faults))
	if len(patterns) > 0 {
		fs := NewFaultSimW(c, sim.WideLanes)
		width := fs.LaneWidth()
		counts := make([]int, len(faults))
		for start := 0; start < len(patterns); start += width {
			end := start + width
			if end > len(patterns) {
				end = len(patterns)
			}
			fs.SetPatterns(patterns[start:end])
			fs.DetectAllMask(faults, counts, detected, 1)
		}
	}
	n := 0
	for _, d := range detected {
		if d {
			n++
		}
	}
	return float64(n) / float64(len(faults))
}
