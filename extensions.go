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
// Like a Table I row, a study reports to one circuit scope: its ATPG
// stage, then its builds and measurements in stages of their own
// (runStage), so a manifest entry of a study shows where its time went.

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
	ctx, sc := e.scope(ctx, c.Name)
	defer sc.Close()
	res, err := e.patternsFor(ctx, c, e.Cfg)
	if err != nil {
		return nil, err
	}
	pats, cfg := res.Patterns, e.Cfg
	out := &EnhancedComparison{Circuit: c.Name, FFs: c.NumFFs()}
	if err := runStage(ctx, StageProposed, len(pats), func(ctx context.Context) error {
		prop, err := core.BuildContext(ctx, c, cfg.Proposed)
		if err != nil {
			return err
		}
		out.ProposedMuxes = prop.Stats.MuxCount
		out.Proposed, err = power.MeasureScanPackedOpts(scan.New(prop.Circuit), pats, prop.Cfg,
			cfg.Leak, cfg.Cap, power.MeasureOptions{Ctx: ctx})
		return err
	}); err != nil {
		return nil, err
	}
	if err := runStage(ctx, StageEnhanced, len(pats), func(ctx context.Context) error {
		enh, penalty, err := core.EnhancedScan(c, cfg.Proposed)
		if err != nil {
			return err
		}
		out.DelayPenaltyPS = penalty
		out.Enhanced, err = power.MeasureScanPackedOpts(scan.New(enh.Circuit), pats, enh.Cfg,
			cfg.Leak, cfg.Cap, power.MeasureOptions{Ctx: ctx})
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
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
// for c, in one stage named after the structure.
func (e *Engine) StudyReordering(ctx context.Context, c *netlist.Circuit, structure string) (*ReorderingStudy, error) {
	if structure != StageTraditional && structure != StageProposed {
		return nil, fmt.Errorf("scanpower: unknown structure %q", structure)
	}
	ctx, sc := e.scope(ctx, c.Name)
	defer sc.Close()
	res, err := e.patternsFor(ctx, c, e.Cfg)
	if err != nil {
		return nil, err
	}
	pats, cfg := res.Patterns, e.Cfg
	st := &ReorderingStudy{Circuit: c.Name, Structure: structure}
	err = runStage(ctx, structure, len(pats), func(ctx context.Context) error {
		circ, sCfg := c, scan.Traditional(c)
		if structure == StageProposed {
			sol, err := core.BuildContext(ctx, c, cfg.Proposed)
			if err != nil {
				return err
			}
			circ, sCfg = sol.Circuit, sol.Cfg
		}
		measure := func(pats []scan.Pattern, order []int) (power.Report, error) {
			var ch *scan.Chain
			if order == nil {
				ch = scan.New(circ)
			} else {
				var err error
				if ch, err = scan.NewWithOrder(circ, order); err != nil {
					return power.Report{}, err
				}
			}
			return power.MeasureScanPackedOpts(ch, pats, sCfg, cfg.Leak, cfg.Cap, power.MeasureOptions{Ctx: ctx})
		}
		var err error
		if st.Baseline, err = measure(pats, nil); err != nil {
			return err
		}
		ordered := reorder.Patterns(pats)
		if st.PatternsReordered, err = measure(ordered, nil); err != nil {
			return err
		}
		if st.ChainReordered, err = measure(pats, reorder.ChainOrder(pats, c.NumFFs())); err != nil {
			return err
		}
		st.Both, err = measure(ordered, reorder.ChainOrder(ordered, c.NumFFs()))
		return err
	})
	if err != nil {
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
	ctx, sc := e.scope(ctx, c.Name)
	defer sc.Close()
	res, err := e.patternsFor(ctx, c, e.Cfg)
	if err != nil {
		return nil, err
	}
	pats := res.Patterns
	var out []TechScalingPoint
	err = runStage(ctx, StageTraditional, len(pats), func(ctx context.Context) error {
		ch := scan.New(c)
		tcfg := scan.Traditional(c)
		for _, node := range leakage.Nodes {
			params, err := leakage.ParamsForNode(node.NM)
			if err != nil {
				return err
			}
			lm := leakage.New(params)
			cm, err := power.CapModelForNode(node.NM)
			if err != nil {
				return err
			}
			rep, err := power.MeasureScanPackedOpts(ch, pats, tcfg, lm, cm, power.MeasureOptions{Ctx: ctx})
			if err != nil {
				return err
			}
			dyn := rep.DynamicPerHz * shiftHz
			pt := TechScalingPoint{NM: node.NM, VDD: node.VDD, DynamicUW: dyn, StaticUW: rep.StaticUW}
			if tot := dyn + rep.StaticUW; tot > 0 {
				pt.StaticShare = rep.StaticUW / tot
			}
			out = append(out, pt)
		}
		return nil
	})
	if err != nil {
		return nil, err
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
	ctx, sc := e.scope(ctx, c.Name)
	defer sc.Close()
	res, err := e.patternsFor(ctx, c, e.Cfg)
	if err != nil {
		return nil, err
	}
	pats, cfg := res.Patterns, e.Cfg
	var out []ChainStudyPoint
	err = runStage(ctx, StageProposed, len(pats), func(ctx context.Context) error {
		sol, err := core.BuildContext(ctx, c, cfg.Proposed)
		if err != nil {
			return err
		}
		for n := 1; n <= c.NumFFs(); n *= 2 {
			cs, err := scan.NewChains(sol.Circuit, n)
			if err != nil {
				return err
			}
			rep, err := power.MeasureScanPackedOpts(cs, pats, sol.Cfg, cfg.Leak, cfg.Cap, power.MeasureOptions{Ctx: ctx})
			if err != nil {
				return err
			}
			out = append(out, ChainStudyPoint{
				Chains:      cs.NumChains(),
				ShiftCycles: rep.Cycles,
				Dynamic:     rep,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
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
	ctx, sc := e.scope(ctx, c.Name)
	defer sc.Close()
	res, err := e.patternsFor(ctx, c, e.Cfg)
	if err != nil {
		return nil, err
	}
	pats, cfg := res.Patterns, e.Cfg
	tcfg := scan.Traditional(c)
	var base power.Report
	if err := runStage(ctx, StageTraditional, len(pats), func(ctx context.Context) error {
		var err error
		base, err = power.MeasureScanPackedOpts(scan.New(c), pats, tcfg, cfg.Leak, cfg.Cap, power.MeasureOptions{Ctx: ctx})
		return err
	}); err != nil {
		return nil, err
	}
	st := &TestPointStudy{
		Circuit:       c.Name,
		BasePeakPerHz: base.PeakDynamicPerHz,
		LimitPerHz:    base.PeakDynamicPerHz * targetFrac,
	}
	if st.BasePeakPerHz <= st.LimitPerHz {
		st.FinalPeakPerHz = st.BasePeakPerHz
		st.MeanDynamicPerHz = base.DynamicPerHz
		return st, nil
	}
	err = runStage(ctx, StageTestPoints, len(pats), func(ctx context.Context) error {
		profile, err := power.ToggleProfile(scan.New(c), pats, tcfg, cfg.Cap)
		if err != nil {
			return err
		}
		cands := core.RankTestPointCandidates(c, profile)
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
				plan.AdaptPatterns(pats), plan.AdaptConfig(tcfg), cfg.Leak, cfg.Cap, power.MeasureOptions{Ctx: ctx})
			return plan, rep, err
		}
		// Exponential probe then refine to the smallest sufficient prefix.
		k := 1
		var plan *core.TestPointPlan
		var rep power.Report
		for {
			if k > len(cands) {
				k = len(cands)
			}
			if plan, rep, err = try(k); err != nil {
				return err
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
				return err
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
		st.DelayPenaltyPS = timing.Analyze(plan.Circuit, cfg.Delay).Critical - timing.Analyze(c, cfg.Delay).Critical
		return nil
	})
	if err != nil {
		return nil, err
	}
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
