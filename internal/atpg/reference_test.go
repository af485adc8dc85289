package atpg

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/testability"
)

// This file preserves the pre-vectorization generation pipeline verbatim
// as the differential / benchmark baseline: whole-circuit re-implication
// PODEM (the podem engine's full mode), a serial per-pattern fault-drop
// sweep after every deterministic pattern, batch-granular random-phase
// stall accounting, serial reverse-order compaction, and flop-index-order
// adjacent fill. generateReference is what the optimized path is measured
// against in TestBenchATPGJSON, and what the search-equivalence tests
// compare engine internals to.

// generateReference runs the legacy pipeline. Results are NOT expected to
// be identical to GenerateContext — the batched pipeline's buffer-flush
// crediting, precise stall cut, and chain-order fill are deliberate
// behavior changes — but coverage conclusions must agree.
func generateReference(ctx context.Context, c *netlist.Circuit, opts Options, ob Observer) (*Result, error) {
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
	rng := rand.New(rand.NewSource(opts.Seed))
	faults := AllFaults(c)
	detected := make([]bool, len(faults))
	detCount := make([]int, len(faults))
	fs := NewFaultSim(c)

	nPI, nFF := len(c.PIs), c.NumFFs()
	var patterns []scan.Pattern

	stopRandom := ob.phaseTimer("random")
	fs64 := NewFaultSimW(c, 64)
	stall := 0
	batch := make([]scan.Pattern, 0, 64)
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
		tries += bsize
		fs64.SetPatterns(batch)
		credited := uint64(0)
		newDet := 0
		for i, f := range faults {
			if detCount[i] >= opts.NDetect {
				continue
			}
			mask := fs64.DetectMask(f)[0]
			if mask == 0 {
				continue
			}
			newDet++
			for mask != 0 && detCount[i] < opts.NDetect {
				low := mask & (-mask)
				credited |= low
				mask &^= low
				detCount[i]++
			}
			detected[i] = true
		}
		if newDet > 0 {
			stall = 0
			for lane := 0; lane < bsize; lane++ {
				if credited&(1<<lane) != 0 {
					patterns = append(patterns, batch[lane])
				}
			}
		} else {
			stall += bsize
		}
		if ob.OnRandomBatch != nil {
			ob.OnRandomBatch(bsize, newDet)
		}
	}
	stopRandom(len(patterns))

	res := &Result{Faults: faults, Detected: detected, DetCounts: detCount}
	detectAllCount := func(pat scan.Pattern) int {
		fs.SetPattern(pat.PI, pat.State)
		n := 0
		for i, f := range faults {
			if detCount[i] >= opts.NDetect {
				continue
			}
			if fs.Detects(f) {
				detCount[i]++
				detected[i] = true
				n++
			}
		}
		return n
	}
	var scoap *testability.Analysis
	if opts.UseSCOAP {
		scoap = testability.Compute(c)
	}
	env := newPodemEnv(c, scoap, opts.MaxBacktracks)
	stopPodem := ob.phaseTimer("podem")
	attempted := 0
	for i, f := range faults {
		if detCount[i] >= opts.NDetect {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.MaxPodemFaults > 0 && attempted >= opts.MaxPodemFaults {
			if !detected[i] {
				res.Aborted++
			}
			if ob.OnPodemFault != nil {
				ob.OnPodemFault(f, PodemSkipped, 0)
			}
			continue
		}
		attempted++
		p := env.newPodem(true)
		status := p.run(f)
		res.Backtracks += p.backtracks
		if ob.OnPodemFault != nil {
			ob.OnPodemFault(f, podemOutcomeOf(status), p.backtracks)
		}
		switch status {
		case podemSuccess:
			for detCount[i] < opts.NDetect {
				pat := referenceExtractPattern(c, p.assign, rng, opts.Fill)
				before := detCount[i]
				if detectAllCount(pat) > 0 {
					patterns = append(patterns, pat)
				}
				if detCount[i] == before {
					if !detected[i] {
						return nil, fmt.Errorf("atpg: internal: PODEM pattern misses its target fault %s",
							f.Name(c))
					}
					break
				}
			}
		case podemUntestable:
			res.Untestable++
		case podemAborted:
			res.Aborted++
		}
	}
	stopPodem(len(patterns))

	stopCompact := ob.phaseTimer("compact")
	if opts.Compact && len(patterns) > 1 {
		patterns = referenceCompact(c, patterns, faults, opts.NDetect)
	}
	stopCompact(len(patterns))
	res.Patterns = patterns
	return res, nil
}

// referenceExtractPattern is the legacy fill: one carry bit walks the
// whole assignment in PI-then-flop-index order, ignoring any chain
// partition.
func referenceExtractPattern(c *netlist.Circuit, assign []logic.Value, rng *rand.Rand, mode FillMode) scan.Pattern {
	nPI := len(c.PIs)
	pat := scan.Pattern{PI: make([]bool, nPI), State: make([]bool, c.NumFFs())}
	last := false
	for i, v := range assign {
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
		if i < nPI {
			pat.PI[i] = b
		} else {
			pat.State[i-nPI] = b
		}
	}
	return pat
}

// referenceCompact is the legacy serial reverse-order compaction.
func referenceCompact(c *netlist.Circuit, patterns []scan.Pattern, faults []Fault, nDetect int) []scan.Pattern {
	if nDetect < 1 {
		nDetect = 1
	}
	fs := NewFaultSim(c)
	seen := make([]int, len(faults))
	var kept []scan.Pattern
	for i := len(patterns) - 1; i >= 0; i-- {
		p := patterns[i]
		fs.SetPattern(p.PI, p.State)
		useful := 0
		for fi, f := range faults {
			if seen[fi] >= nDetect {
				continue
			}
			if fs.Detects(f) {
				seen[fi]++
				useful++
			}
		}
		if useful > 0 {
			kept = append(kept, p)
		}
	}
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}
	return kept
}
