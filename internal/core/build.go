package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/scan"
	"repro/internal/timing"
)

// Solution is the output of the full flow: everything the tester needs to
// drive the structure (the shift configuration) plus the analysis state
// that produced it.
type Solution struct {
	// Circuit is the analyzed circuit; when Options.ReorderInputs is set
	// it is a clone of the input with permuted symmetric-gate inputs.
	Circuit *netlist.Circuit
	// Cfg is the scan-mode behaviour: which flops are multiplexed, their
	// constants, and the primary-input hold values.
	Cfg scan.ShiftConfig
	// Assign is the final controlled-input assignment per net.
	Assign []logic.Value
	// Val is the implied scan-mode three-valued state (X = toggling).
	Val []logic.Value
	// Trans flags the nets still carrying transitions during shift.
	Trans []bool
	// Timing is the pre-modification analysis (AddMUX's basis); nil for
	// the input-control baseline.
	Timing *timing.Analysis
	// Stats summarizes the run.
	Stats Stats

	leakNA func() float64
}

// Build runs the complete flow of the paper (or the input-control
// baseline, depending on opts) on the frozen circuit c. The input circuit
// is never mutated.
func Build(c *netlist.Circuit, opts Options) (*Solution, error) {
	return BuildContext(context.Background(), c, opts)
}

// BuildContext is Build with cancellation: the justification search
// checks ctx between decisions and the main blocking loop between target
// gates, so a pathological circuit can be abandoned mid-flow. The
// returned error is ctx.Err() when the context ends the run. The
// phases, justification attempts and Monte-Carlo batches are reported to
// ctx's probe scope.
func BuildContext(ctx context.Context, c *netlist.Circuit, opts Options) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := probe.From(ctx)
	if !c.Frozen() {
		return nil, fmt.Errorf("core: circuit %s must be frozen", c.Name)
	}
	if opts.Leak == nil {
		return nil, fmt.Errorf("core: Options.Leak is required")
	}
	if opts.JustifyBacktracks <= 0 {
		opts.JustifyBacktracks = 50
	}
	work := c.Clone()
	if err := work.Freeze(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	sol := &Solution{Circuit: work}

	// Step 1: AddMUX (proposed structure only).
	var muxable []bool
	switch {
	case opts.UseMux && opts.MuxMask != nil:
		if len(opts.MuxMask) != work.NumFFs() {
			return nil, fmt.Errorf("core: MuxMask has %d entries for %d flops",
				len(opts.MuxMask), work.NumFFs())
		}
		muxable = append([]bool(nil), opts.MuxMask...)
		sol.Stats.CriticalDelay = timing.Analyze(work, opts.Delay).Critical
		for _, m := range muxable {
			if m {
				sol.Stats.MuxCount++
			}
		}
	case opts.UseMux:
		var a *timing.Analysis
		muxable, a = AddMUX(work, opts.Delay)
		sol.Timing = a
		sol.Stats.CriticalDelay = a.Critical
		for _, m := range muxable {
			if m {
				sol.Stats.MuxCount++
			}
		}
	default:
		muxable = make([]bool, work.NumFFs())
		sol.Stats.CriticalDelay = timing.Analyze(work, opts.Delay).Critical
	}

	// Leakage observability directive. The packed estimate consumes the
	// shared rng's stream exactly as the scalar reference does, so the
	// finder below sees the same draws.
	var ob *obs.Observability
	if opts.ObsDirected {
		doneObs := sc.Phase("observability")
		var err error
		ob, err = obs.EstimatePacked(ctx, work, opts.Leak, opts.ObsSamples, rng)
		doneObs()
		if err != nil {
			return nil, err
		}
	}

	// Step 2: FindControlledInputPattern.
	f := newFinder(work, &opts, muxable, ob, rng)
	f.ctx, f.probe = ctx, sc
	doneBlock := sc.Phase("blocking")
	f.run()
	doneBlock()
	if f.err != nil {
		return nil, f.err
	}
	sol.Stats.BlockedGates = f.blockedGates
	sol.Stats.FailedGates = f.failedGates
	assignedBeforeFill := 0
	for _, n := range work.CombInputs() {
		if f.controlled[n] && f.assign[n] != logic.X {
			assignedBeforeFill++
		}
	}
	sol.Stats.AssignedInputs = assignedBeforeFill
	doneFill := sc.Phase("fill")
	sol.Stats.FilledInputs = f.fill()
	doneFill()
	f.classify()
	sol.Stats.TransitionNets = f.transitionNetCount()

	// Step 3: gate input reordering under the scan-mode state.
	if opts.ReorderInputs {
		doneReorder := sc.Phase("reorder")
		sol.Stats.ReorderedGates = ReorderInputs(work, f.val, opts.Leak)
		f.implyFull() // values are unchanged; re-derive them over the permuted inputs
		f.classify()
		doneReorder()
	}
	if f.err != nil {
		return nil, f.err
	}

	sol.Assign = append([]logic.Value(nil), f.assign...)
	sol.Val = append([]logic.Value(nil), f.val...)
	sol.Trans = append([]bool(nil), f.trans...)
	sol.Stats.ScanLeakNA = opts.Leak.CircuitLeak(work, f.val)
	sol.leakNA = func() float64 { return opts.Leak.CircuitLeak(work, f.val) }

	// Assemble the shift configuration.
	cfg := scan.ShiftConfig{
		PIHold: make([]logic.Value, len(work.PIs)),
		Muxed:  append([]bool(nil), muxable...),
		MuxVal: make([]bool, work.NumFFs()),
	}
	for i, pi := range work.PIs {
		cfg.PIHold[i] = sol.Assign[pi]
	}
	for fi, ff := range work.FFs {
		if muxable[fi] {
			v := sol.Assign[ff.Q]
			if !v.IsBinary() {
				// A muxed pseudo-input the fill never touched (possible
				// only when it is also dead); tie low.
				v = logic.Zero
			}
			cfg.MuxVal[fi] = v == logic.One
		}
	}
	sol.Cfg = cfg
	return sol, nil
}

// MuxScanLeakNA returns the leakage added by the inserted MUX cells
// themselves during scan mode (d0 = toggling chain bit, d1 = tied
// constant, select = Shift Enable = 1), in nA. The combinational-part
// figures of Table I exclude the scan cells; expose this so callers can
// report the structure's own overhead.
func (s *Solution) MuxScanLeakNA(lm interface {
	GateLeak(t logic.GateType, in []logic.Value) float64
}) float64 {
	total := 0.0
	for fi := range s.Circuit.FFs {
		if !s.Cfg.Muxed[fi] {
			continue
		}
		d1 := logic.Zero
		if s.Cfg.MuxVal[fi] {
			d1 = logic.One
		}
		total += lm.GateLeak(logic.Mux2, []logic.Value{logic.X, d1, logic.One})
	}
	return total
}

// BlockedShare returns the fraction of gates whose scan-mode output is a
// binary constant (fully quiet during shifting).
func (s *Solution) BlockedShare() float64 {
	if s.Circuit.NumGates() == 0 {
		return 1
	}
	quiet := 0
	for gi := range s.Circuit.Gates {
		if !s.Trans[s.Circuit.Gates[gi].Output] {
			quiet++
		}
	}
	return float64(quiet) / float64(s.Circuit.NumGates())
}
