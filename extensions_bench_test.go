package scanpower

// Benchmarks for the extension experiments (the studies the paper defers
// or argues against): enhanced-scan full isolation and pattern/scan-cell
// reordering. Reported metrics carry the measured values.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/atpg"
	"repro/internal/power"
	"repro/internal/scan"
)

func BenchmarkExtensionEnhancedScan(b *testing.B) {
	c := benchCircuit(b, "s344")
	cfg := DefaultConfig()
	var cmp *EnhancedComparison
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err = CompareEnhanced(context.Background(), c, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.Proposed.DynamicPerHz*1e9, "prop_dyn_nW/GHz")
	b.ReportMetric(cmp.Enhanced.DynamicPerHz*1e9, "enh_dyn_nW/GHz")
	b.ReportMetric(cmp.DelayPenaltyPS, "enh_delay_ps")
	b.ReportMetric(float64(cmp.ProposedMuxes), "prop_muxes")
}

func BenchmarkExtensionReordering(b *testing.B) {
	for _, structure := range []string{"traditional", "proposed"} {
		b.Run(structure, func(b *testing.B) {
			c := benchCircuit(b, "s344")
			cfg := DefaultConfig()
			var st *ReorderingStudy
			var err error
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err = StudyReordering(context.Background(), c, cfg, structure)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(st.Baseline.DynamicPerHz*1e9, "base_dyn_nW/GHz")
			b.ReportMetric(st.PatternsReordered.DynamicPerHz*1e9, "patord_dyn_nW/GHz")
			b.ReportMetric(st.ChainReordered.DynamicPerHz*1e9, "chainord_dyn_nW/GHz")
			b.ReportMetric(st.Both.DynamicPerHz*1e9, "both_dyn_nW/GHz")
			b.ReportMetric(st.BestDynamicGain(), "best_gain_%")
		})
	}
}

func BenchmarkExtensionPeakPower(b *testing.B) {
	c := benchCircuit(b, "s344")
	cfg := DefaultConfig()
	var cmp *Comparison
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err = Compare(context.Background(), c, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.Traditional.PeakDynamicPerHz*1e9, "trad_peak_nW/GHz")
	b.ReportMetric(cmp.Proposed.PeakDynamicPerHz*1e9, "prop_peak_nW/GHz")
}

// BenchmarkExtensionTechScaling reports the static share of traditional
// scan power per technology node (the paper's motivating trend) at a
// 100 MHz shift clock.
func BenchmarkExtensionTechScaling(b *testing.B) {
	c := benchCircuit(b, "s344")
	cfg := DefaultConfig()
	var pts []TechScalingPoint
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err = NewEngine(cfg).StudyTechScaling(context.Background(), c, 100e6)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.StaticShare*100, fmt.Sprintf("static_share_%dnm_%%", p.NM))
	}
}

// BenchmarkExtensionXFill compares don't-care fill strategies for the
// deterministic patterns: minimum-transition (adjacent) fill vs random
// fill, measured as traditional-scan dynamic power — the classic
// low-power-ATPG lever, orthogonal to the paper's structure.
func BenchmarkExtensionXFill(b *testing.B) {
	c := benchCircuit(b, "s344")
	cfg := DefaultConfig()
	var dynRandom, dynAdjacent float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mode := range []atpg.FillMode{atpg.FillRandom, atpg.FillAdjacent} {
			opts := cfg.ATPG
			opts.Fill = mode
			opts.MaxRandomPatterns = 0 // deterministic patterns only
			res, err := atpg.Generate(c, opts)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := power.MeasureScan(scan.New(c), res.Patterns, scan.Traditional(c), cfg.Leak, cfg.Cap)
			if err != nil {
				b.Fatal(err)
			}
			if mode == atpg.FillRandom {
				dynRandom = rep.DynamicPerHz
			} else {
				dynAdjacent = rep.DynamicPerHz
			}
		}
	}
	b.ReportMetric(dynRandom*1e9, "randomfill_dyn_nW/GHz")
	b.ReportMetric(dynAdjacent*1e9, "mtfill_dyn_nW/GHz")
	b.ReportMetric(power.Improvement(dynRandom, dynAdjacent), "mtfill_gain_%")
}

// BenchmarkExtensionMultiChain reports test time (shift cycles) across
// chain counts for the proposed structure.
func BenchmarkExtensionMultiChain(b *testing.B) {
	c := benchCircuit(b, "s344")
	cfg := DefaultConfig()
	var pts []ChainStudyPoint
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err = NewEngine(cfg).StudyChains(context.Background(), c)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(float64(p.ShiftCycles), fmt.Sprintf("cycles_%dchains", p.Chains))
	}
}

// BenchmarkExtensionTestPoints reproduces the [6]-style peak-power
// control baseline: how many gated lines it takes to cut traditional
// scan's peak to 60%, and the clock-period price — both costs the
// proposed structure avoids.
func BenchmarkExtensionTestPoints(b *testing.B) {
	c := benchCircuit(b, "s344")
	cfg := DefaultConfig()
	var st *TestPointStudy
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err = NewEngine(cfg).StudyTestPoints(context.Background(), c, 0.6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Points), "points")
	b.ReportMetric(st.BasePeakPerHz*1e9, "base_peak_nW/GHz")
	b.ReportMetric(st.FinalPeakPerHz*1e9, "final_peak_nW/GHz")
	b.ReportMetric(st.DelayPenaltyPS, "delay_penalty_ps")
}
