package scanpower

import (
	"context"
	"fmt"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/reorder"
	"repro/internal/scan"
	"repro/internal/timing"
)

// This file hosts the extensions beyond the paper's measured table:
//
//   - the enhanced-scan comparison (full isolation à la [5], which the
//     paper argues against because it costs clock period),
//   - the pattern/scan-cell reordering study the paper explicitly defers
//     ("by applying reordering techniques, further improvements can be
//     achieved"), and
//   - the technology-scaling, multi-chain and test-point ([6]) studies.
//
// Every study is an Engine method and measures the test set of
// Engine.Patterns, the one a Table I row of the same circuit measures.

// EnhancedComparison measures the fully isolated structure on the same
// test set conventions as Compare and reports the normal-mode delay
// penalty the paper's selective approach avoids.
type EnhancedComparison struct {
	Circuit string
	// Enhanced is the power of the fully isolated structure.
	Enhanced power.Report
	// Proposed is the paper's structure on the same patterns.
	Proposed power.Report
	// DelayPenaltyPS is the critical-path increase (ps) full isolation
	// costs; the proposed structure costs zero by construction.
	DelayPenaltyPS float64
	// ProposedMuxes / FFs show how selective the proposed structure was.
	ProposedMuxes int
	FFs           int
}

// CompareEnhanced runs the enhanced-scan extension experiment. Like every
// v1 entry point it is context-first; pass context.Background() when no
// cancellation is needed. It is Engine.CompareEnhanced on a fresh Engine.
func CompareEnhanced(ctx context.Context, c *netlist.Circuit, cfg Config) (*EnhancedComparison, error) {
	return NewEngine(cfg).CompareEnhanced(ctx, c)
}

// CompareEnhanced runs the enhanced-scan extension on the Engine's test
// set for c.
func (e *Engine) CompareEnhanced(ctx context.Context, c *netlist.Circuit) (*EnhancedComparison, error) {
	pats, err := e.Patterns(ctx, c)
	if err != nil {
		return nil, err
	}
	cfg := e.Cfg
	mopts := power.MeasureOptions{Ctx: ctx}
	prop, err := core.BuildContext(ctx, c, cfg.Proposed)
	if err != nil {
		return nil, err
	}
	propRep, err := power.MeasureScanPackedOpts(scan.New(prop.Circuit), pats, prop.Cfg, cfg.Leak, cfg.Cap, mopts)
	if err != nil {
		return nil, err
	}
	enh, penalty, err := core.EnhancedScan(c, cfg.Proposed)
	if err != nil {
		return nil, err
	}
	enhRep, err := power.MeasureScanPackedOpts(scan.New(enh.Circuit), pats, enh.Cfg, cfg.Leak, cfg.Cap, mopts)
	if err != nil {
		return nil, err
	}
	return &EnhancedComparison{
		Circuit:        c.Name,
		Enhanced:       enhRep,
		Proposed:       propRep,
		DelayPenaltyPS: penalty,
		ProposedMuxes:  prop.Stats.MuxCount,
		FFs:            c.NumFFs(),
	}, nil
}

// ReorderingStudy measures one structure under the four combinations of
// the two workload orderings.
type ReorderingStudy struct {
	Circuit   string
	Structure string
	// Baseline: paper conventions (no reordering, netlist chain order).
	Baseline power.Report
	// PatternsReordered: greedy Hamming nearest-neighbour pattern order.
	PatternsReordered power.Report
	// ChainReordered: correlation-driven scan-cell order.
	ChainReordered power.Report
	// Both: both orderings applied.
	Both power.Report
}

// BestDynamicGain returns the largest dynamic improvement (%) any
// reordering combination achieves over the baseline.
func (r *ReorderingStudy) BestDynamicGain() float64 {
	best := 0.0
	for _, rep := range []power.Report{r.PatternsReordered, r.ChainReordered, r.Both} {
		if g := power.Improvement(r.Baseline.DynamicPerHz, rep.DynamicPerHz); g > best {
			best = g
		}
	}
	return best
}

// StudyReordering runs the deferred-reordering extension experiment on
// the given structure ("traditional" or "proposed"). Like every v1 entry
// point it is context-first; pass context.Background() when no
// cancellation is needed. It is Engine.StudyReordering on a fresh Engine.
func StudyReordering(ctx context.Context, c *netlist.Circuit, cfg Config, structure string) (*ReorderingStudy, error) {
	return NewEngine(cfg).StudyReordering(ctx, c, structure)
}

// StudyReordering runs the reordering extension on the Engine's test set
// for c.
func (e *Engine) StudyReordering(ctx context.Context, c *netlist.Circuit, structure string) (*ReorderingStudy, error) {
	pats, err := e.Patterns(ctx, c)
	if err != nil {
		return nil, err
	}
	cfg := e.Cfg
	var (
		circ *netlist.Circuit
		sCfg scan.ShiftConfig
	)
	switch structure {
	case "traditional":
		circ, sCfg = c, scan.Traditional(c)
	case "proposed":
		sol, err := core.BuildContext(ctx, c, cfg.Proposed)
		if err != nil {
			return nil, err
		}
		circ, sCfg = sol.Circuit, sol.Cfg
	default:
		return nil, fmt.Errorf("scanpower: unknown structure %q", structure)
	}

	measure := func(pats []scan.Pattern, order []int) (power.Report, error) {
		var ch *scan.Chain
		if order == nil {
			ch = scan.New(circ)
		} else {
			var err error
			ch, err = scan.NewWithOrder(circ, order)
			if err != nil {
				return power.Report{}, err
			}
		}
		return power.MeasureScanPackedOpts(ch, pats, sCfg, cfg.Leak, cfg.Cap, power.MeasureOptions{Ctx: ctx})
	}

	st := &ReorderingStudy{Circuit: c.Name, Structure: structure}
	if st.Baseline, err = measure(pats, nil); err != nil {
		return nil, err
	}
	ordered := reorder.Patterns(pats)
	if st.PatternsReordered, err = measure(ordered, nil); err != nil {
		return nil, err
	}
	chain := reorder.ChainOrder(pats, c.NumFFs())
	if st.ChainReordered, err = measure(pats, chain); err != nil {
		return nil, err
	}
	chainBoth := reorder.ChainOrder(ordered, c.NumFFs())
	if st.Both, err = measure(ordered, chainBoth); err != nil {
		return nil, err
	}
	return st, nil
}

// scaledATPG is the large-circuit effort scaling of the Engine's ATPG
// stage.
func scaledATPG(c *netlist.Circuit, cfg Config) atpg.Options {
	aopts := cfg.ATPG
	if cfg.ScaleATPG && c.NumGates() > 2000 {
		aopts.MaxRandomPatterns = 2048
		aopts.MaxBacktracks = 8
		aopts.MaxPodemFaults = 300
	}
	return aopts
}

// TechScalingPoint is one generation of the technology-scaling study:
// traditional-scan power of the combinational part at a given shift
// frequency, split into dynamic and static components.
type TechScalingPoint struct {
	NM        int
	VDD       float64
	DynamicUW float64
	StaticUW  float64
	// StaticShare = static / (static + dynamic), in [0,1].
	StaticShare float64
}

// StudyTechScaling reproduces the paper's motivating trend ("in future
// technologies the static portion of power dissipation will outreach the
// dynamic portion"): it measures traditional scan on the same circuit and
// test set across technology generations, scaling the calibrated 45 nm
// leakage and capacitance models per node, and reports the static share
// of total scan power at the given shift frequency.
func (e *Engine) StudyTechScaling(ctx context.Context, c *netlist.Circuit, shiftHz float64) ([]TechScalingPoint, error) {
	pats, err := e.Patterns(ctx, c)
	if err != nil {
		return nil, err
	}
	ch := scan.New(c)
	tcfg := scan.Traditional(c)
	var out []TechScalingPoint
	for _, node := range leakage.Nodes {
		params, err := leakage.ParamsForNode(node.NM)
		if err != nil {
			return nil, err
		}
		lm := leakage.New(params)
		cm, err := power.CapModelForNode(node.NM)
		if err != nil {
			return nil, err
		}
		rep, err := power.MeasureScanPackedOpts(ch, pats, tcfg, lm, cm, power.MeasureOptions{Ctx: ctx})
		if err != nil {
			return nil, err
		}
		dyn := rep.DynamicPerHz * shiftHz
		pt := TechScalingPoint{NM: node.NM, VDD: node.VDD, DynamicUW: dyn, StaticUW: rep.StaticUW}
		if tot := dyn + rep.StaticUW; tot > 0 {
			pt.StaticShare = rep.StaticUW / tot
		}
		out = append(out, pt)
	}
	return out, nil
}

// ChainStudyPoint is one chain-count configuration of the multi-chain
// study: total test cycles and scan-mode power of the proposed structure.
type ChainStudyPoint struct {
	Chains      int
	ShiftCycles int
	Dynamic     power.Report
}

// StudyChains sweeps the scan-chain count (1, 2, 4, ... up to the flop
// count) for the proposed structure: shift cycles per pattern shrink with
// the longest chain — test time falls — while per-cycle power stays in
// the same band. Multi-chain scan composes with the paper's technique
// unchanged (the MUX select is still the shared Shift Enable).
func (e *Engine) StudyChains(ctx context.Context, c *netlist.Circuit) ([]ChainStudyPoint, error) {
	pats, err := e.Patterns(ctx, c)
	if err != nil {
		return nil, err
	}
	cfg := e.Cfg
	sol, err := core.BuildContext(ctx, c, cfg.Proposed)
	if err != nil {
		return nil, err
	}
	var out []ChainStudyPoint
	for n := 1; n <= c.NumFFs(); n *= 2 {
		cs, err := scan.NewChains(sol.Circuit, n)
		if err != nil {
			return nil, err
		}
		rep, err := power.MeasureScanPackedOpts(cs, pats, sol.Cfg, cfg.Leak, cfg.Cap, power.MeasureOptions{Ctx: ctx})
		if err != nil {
			return nil, err
		}
		out = append(out, ChainStudyPoint{
			Chains:      cs.NumChains(),
			ShiftCycles: rep.Cycles,
			Dynamic:     rep,
		})
	}
	return out, nil
}

// TestPointStudy is the outcome of StudyTestPoints.
type TestPointStudy struct {
	Circuit string
	// BasePeakPerHz is traditional scan's worst-cycle switched energy;
	// LimitPerHz the target (BasePeak × the requested fraction);
	// FinalPeakPerHz what the inserted points achieved.
	BasePeakPerHz, LimitPerHz, FinalPeakPerHz float64
	// Points is the number of gated lines needed.
	Points int
	// DelayPenaltyPS is the critical-path cost of the gating gates — the
	// structural price the paper's technique avoids by construction.
	DelayPenaltyPS float64
	// MeanDynamicPerHz is the average dynamic power with points active.
	MeanDynamicPerHz float64
}

// StudyTestPoints reproduces the peak-power control baseline of the
// paper's reference [6]: test points (gating gates driven by a global
// Test Point Enable) are inserted greedily at the most active lines until
// the worst-cycle scan power drops below targetFrac of traditional
// scan's peak. It reports how many points that takes and what it costs
// in clock period — the two drawbacks the paper's structure avoids.
func (e *Engine) StudyTestPoints(ctx context.Context, c *netlist.Circuit, targetFrac float64) (*TestPointStudy, error) {
	if targetFrac <= 0 || targetFrac > 1 {
		return nil, fmt.Errorf("scanpower: targetFrac %v out of (0,1]", targetFrac)
	}
	pats, err := e.Patterns(ctx, c)
	if err != nil {
		return nil, err
	}
	cfg := e.Cfg
	mopts := power.MeasureOptions{Ctx: ctx}
	tcfg := scan.Traditional(c)
	base, err := power.MeasureScanPackedOpts(scan.New(c), pats, tcfg, cfg.Leak, cfg.Cap, mopts)
	if err != nil {
		return nil, err
	}
	st := &TestPointStudy{
		Circuit:       c.Name,
		BasePeakPerHz: base.PeakDynamicPerHz,
		LimitPerHz:    base.PeakDynamicPerHz * targetFrac,
	}
	profile, err := power.ToggleProfile(scan.New(c), pats, tcfg, cfg.Cap)
	if err != nil {
		return nil, err
	}
	cands := core.RankTestPointCandidates(c, profile)
	baseCrit := timing.Analyze(c, cfg.Delay).Critical

	try := func(k int) (*core.TestPointPlan, power.Report, error) {
		nets := cands[:k]
		values := make([]bool, k)
		for i, n := range nets {
			values[i] = forceValueFor(c, n)
		}
		plan, err := core.InsertTestPoints(c, nets, values)
		if err != nil {
			return nil, power.Report{}, err
		}
		rep, err := power.MeasureScanPackedOpts(scan.New(plan.Circuit),
			plan.AdaptPatterns(pats), plan.AdaptConfig(tcfg), cfg.Leak, cfg.Cap, mopts)
		return plan, rep, err
	}
	if st.BasePeakPerHz <= st.LimitPerHz {
		st.FinalPeakPerHz = st.BasePeakPerHz
		st.MeanDynamicPerHz = base.DynamicPerHz
		return st, nil
	}
	// Exponential probe then refine to the smallest sufficient prefix.
	k := 1
	var plan *core.TestPointPlan
	var rep power.Report
	for {
		if k > len(cands) {
			k = len(cands)
		}
		plan, rep, err = try(k)
		if err != nil {
			return nil, err
		}
		if rep.PeakDynamicPerHz <= st.LimitPerHz || k == len(cands) {
			break
		}
		k *= 2
	}
	lo, hi := k/2, k // lo insufficient (or 0), hi sufficient/limit
	for lo+1 < hi {
		mid := (lo + hi) / 2
		p2, r2, err := try(mid)
		if err != nil {
			return nil, err
		}
		if r2.PeakDynamicPerHz <= st.LimitPerHz {
			hi, plan, rep = mid, p2, r2
		} else {
			lo = mid
		}
	}
	st.Points = hi
	st.FinalPeakPerHz = rep.PeakDynamicPerHz
	st.MeanDynamicPerHz = rep.DynamicPerHz
	st.DelayPenaltyPS = timing.Analyze(plan.Circuit, cfg.Delay).Critical - baseCrit
	return st, nil
}

// forceValueFor picks the constant that blocks the most downstream logic:
// the controlling value of the majority of the net's readers.
func forceValueFor(c *netlist.Circuit, n netlist.NetID) bool {
	zero, one := 0, 0
	for _, gi := range c.Nets[n].Fanout {
		switch c.Gates[gi].Type {
		case logic.And, logic.Nand:
			zero++
		case logic.Or, logic.Nor:
			one++
		}
	}
	return one > zero
}
