package scanpower

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func TestCompareEnhanced(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareEnhanced(context.Background(), c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Full isolation is the dynamic floor: nothing moves during shifting
	// except capture boundaries, so it must be at or below the proposed
	// structure's dynamic power.
	if cmp.Enhanced.DynamicPerHz > cmp.Proposed.DynamicPerHz*1.001 {
		t.Errorf("enhanced dynamic %v above proposed %v",
			cmp.Enhanced.DynamicPerHz, cmp.Proposed.DynamicPerHz)
	}
	// But it pays for it in clock period, which the proposed structure
	// never does (that is the paper's argument).
	if cmp.ProposedMuxes < cmp.FFs && cmp.DelayPenaltyPS <= 0 {
		t.Errorf("enhanced scan penalty %v ps with %d/%d selective muxes",
			cmp.DelayPenaltyPS, cmp.ProposedMuxes, cmp.FFs)
	}
}

func TestStudyReorderingTraditional(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	st, err := StudyReordering(context.Background(), c, DefaultConfig(), "traditional")
	if err != nil {
		t.Fatal(err)
	}
	if st.Baseline.Cycles == 0 {
		t.Fatal("no measurement")
	}
	// Greedy pattern reordering must not increase traditional-scan
	// dynamic power on this workload (it minimizes exactly the loaded-
	// state Hamming tour the shifting replays).
	if st.PatternsReordered.DynamicPerHz > st.Baseline.DynamicPerHz*1.05 {
		t.Errorf("pattern reordering hurt: %v -> %v",
			st.Baseline.DynamicPerHz, st.PatternsReordered.DynamicPerHz)
	}
	if st.BestDynamicGain() <= 0 {
		t.Errorf("no reordering combination improved dynamic power (best gain %.2f%%)",
			st.BestDynamicGain())
	}
}

func TestStudyReorderingProposedStillWins(t *testing.T) {
	// Even with the best reordering applied to traditional scan, the
	// proposed structure (unreordered) should remain far ahead on this
	// FF-rich circuit — reordering is a complement, not a substitute.
	c, err := Benchmark("s382")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	trad, err := StudyReordering(context.Background(), c, cfg, "traditional")
	if err != nil {
		t.Fatal(err)
	}
	prop, err := StudyReordering(context.Background(), c, cfg, "proposed")
	if err != nil {
		t.Fatal(err)
	}
	bestTrad := trad.Baseline.DynamicPerHz
	for _, r := range []float64{trad.PatternsReordered.DynamicPerHz,
		trad.ChainReordered.DynamicPerHz, trad.Both.DynamicPerHz} {
		if r < bestTrad {
			bestTrad = r
		}
	}
	if prop.Baseline.DynamicPerHz >= bestTrad {
		t.Errorf("proposed %v should beat best-reordered traditional %v",
			prop.Baseline.DynamicPerHz, bestTrad)
	}
}

func TestStudyReorderingRejectsUnknownStructure(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StudyReordering(context.Background(), c, DefaultConfig(), "bogus"); err == nil {
		t.Error("accepted unknown structure")
	}
}

func TestStudyTechScalingTrend(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	points, err := NewEngine(DefaultConfig()).StudyTechScaling(context.Background(), c, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("got %d nodes, want 5", len(points))
	}
	// The paper's motivation: the static share grows monotonically with
	// scaling and dominates at the newest node.
	for i := 1; i < len(points); i++ {
		if points[i].StaticShare <= points[i-1].StaticShare {
			t.Errorf("static share not monotone: %dnm %.3f -> %dnm %.3f",
				points[i-1].NM, points[i-1].StaticShare,
				points[i].NM, points[i].StaticShare)
		}
	}
	if last := points[len(points)-1]; last.StaticShare < 0.5 {
		t.Errorf("static should dominate at %d nm (share %.2f)", last.NM, last.StaticShare)
	}
	// And at the oldest node, dynamic still dominates at this frequency.
	if points[0].StaticShare > 0.5 {
		t.Errorf("dynamic should dominate at %d nm (share %.2f)",
			points[0].NM, points[0].StaticShare)
	}
}

func TestStudyChains(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	points, err := NewEngine(DefaultConfig()).StudyChains(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 3 {
		t.Fatalf("only %d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].ShiftCycles >= points[i-1].ShiftCycles {
			t.Errorf("%d chains: cycles %d not below %d chains' %d",
				points[i].Chains, points[i].ShiftCycles,
				points[i-1].Chains, points[i-1].ShiftCycles)
		}
	}
}

func TestInsertTestPointsFunctionalTransparency(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	// Gate the three heaviest-fanout gate outputs.
	var nets []netlist.NetID
	for ni := range c.Nets {
		n := &c.Nets[ni]
		if !n.IsPI() && !n.IsPPI() && len(n.Fanout) >= 3 {
			nets = append(nets, netlist.NetID(ni))
			if len(nets) == 3 {
				break
			}
		}
	}
	if len(nets) == 0 {
		t.Skip("no high-fanout nets")
	}
	values := make([]bool, len(nets))
	values[0] = true
	plan, err := core.InsertTestPoints(c, nets, values)
	if err != nil {
		t.Fatal(err)
	}
	// With TPE=0 the gated netlist must compute the original functions.
	sa, sb := sim.New(c), sim.New(plan.Circuit)
	rng := rand.New(rand.NewSource(31))
	pi := make([]bool, len(c.PIs))
	ppi := make([]bool, c.NumFFs())
	piB := make([]bool, len(plan.Circuit.PIs))
	for trial := 0; trial < 300; trial++ {
		sim.RandomVector(rng, pi)
		sim.RandomVector(rng, ppi)
		copy(piB, pi)
		piB[plan.TPEIndex] = false
		stA := sa.Eval(pi, ppi)
		stB := sb.Eval(piB, ppi)
		for fi := range c.FFs {
			if stA[c.FFs[fi].D] != stB[plan.Circuit.FFs[fi].D] {
				t.Fatalf("trial %d: next state of flop %d differs with TPE=0", trial, fi)
			}
		}
		for _, po := range c.POs {
			name := c.Nets[po].Name
			pb, ok := plan.Circuit.NetByName(name)
			if !ok {
				t.Fatalf("PO %s missing", name)
			}
			if stA[po] != stB[pb] {
				t.Fatalf("trial %d: PO %s differs with TPE=0", trial, name)
			}
		}
	}
}

func TestInsertTestPointsValidation(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.InsertTestPoints(c, []netlist.NetID{0}, []bool{true, false}); err == nil {
		t.Error("accepted mismatched lengths")
	}
	if _, err := core.InsertTestPoints(c, []netlist.NetID{c.PIs[0]}, []bool{false}); err == nil {
		t.Error("accepted gating a primary input")
	}
	someGate := c.Gates[0].Output
	if _, err := core.InsertTestPoints(c, []netlist.NetID{someGate, someGate}, []bool{false, false}); err == nil {
		t.Error("accepted duplicate net")
	}
}

func TestStudyTestPoints(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(DefaultConfig())
	st, err := eng.StudyTestPoints(context.Background(), c, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if st.BasePeakPerHz <= 0 {
		t.Fatal("no base peak")
	}
	if st.FinalPeakPerHz > st.LimitPerHz*1.0001 && st.Points < 1 {
		t.Errorf("limit missed with no points: %+v", st)
	}
	if st.Points > 0 {
		if st.FinalPeakPerHz > st.LimitPerHz*1.0001 {
			t.Logf("limit not reached even with %d points (final %v > limit %v)",
				st.Points, st.FinalPeakPerHz, st.LimitPerHz)
		}
		if st.DelayPenaltyPS < 0 {
			t.Errorf("negative delay penalty %v", st.DelayPenaltyPS)
		}
	}
	if _, err := eng.StudyTestPoints(context.Background(), c, 0); err == nil {
		t.Error("accepted bad fraction")
	}
}

// TestStudiesMeasureTableITestSet: after a Table I run of s344, the three
// Engine studies of the same circuit take its test set from the pattern
// cache — one generation, three hits — and measure exactly the row's
// patterns: the single-chain proposed structure shifts the row's cycles
// and the test-point baseline starts from the row's traditional peak.
func TestStudiesMeasureTableITestSet(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(DefaultConfig())
	cmps, err := eng.RunAll(ctx, []string{"s344"})
	if err != nil {
		t.Fatal(err)
	}
	row := cmps[0]
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.StudyTechScaling(ctx, c, 100e6); err != nil {
		t.Fatal(err)
	}
	chains, err := eng.StudyChains(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := eng.StudyTestPoints(ctx, c, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := eng.CacheStats(); hits != 3 || misses != 1 {
		t.Errorf("CacheStats = %d hits, %d misses; want 3 and 1", hits, misses)
	}
	if chains[0].Chains != 1 || chains[0].Dynamic != row.Proposed {
		t.Errorf("one-chain study %+v differs from the row's proposed %+v", chains[0].Dynamic, row.Proposed)
	}
	if tp.BasePeakPerHz != row.Traditional.PeakDynamicPerHz {
		t.Errorf("test-point base peak %v, row's traditional peak %v",
			tp.BasePeakPerHz, row.Traditional.PeakDynamicPerHz)
	}
}

// TestStudiesCancelled: every Engine study returns ctx's error for a dead
// context.
func TestStudiesCancelled(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := NewEngine(DefaultConfig())
	studies := map[string]func() error{
		"StudyTechScaling": func() error { _, err := eng.StudyTechScaling(ctx, c, 100e6); return err },
		"StudyChains":      func() error { _, err := eng.StudyChains(ctx, c); return err },
		"StudyTestPoints":  func() error { _, err := eng.StudyTestPoints(ctx, c, 0.6); return err },
		"CompareEnhanced":  func() error { _, err := eng.CompareEnhanced(ctx, c); return err },
		"StudyReordering":  func() error { _, err := eng.StudyReordering(ctx, c, "proposed"); return err },
	}
	for name, study := range studies {
		if err := study(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s error = %v, want context.Canceled", name, err)
		}
	}
}

// TestEnginePatternsMatchCompare: Engine.Patterns is the test set Compare
// measures, generated once.
func TestEnginePatternsMatchCompare(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	eng := NewEngine(cfg)
	pats, err := eng.Patterns(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != cmp.Patterns {
		t.Errorf("Patterns returned %d patterns, Compare measured %d", len(pats), cmp.Patterns)
	}
	if hits, misses := eng.CacheStats(); hits != 0 || misses != 1 {
		t.Errorf("CacheStats = %d hits, %d misses; want 0 and 1", hits, misses)
	}
}
