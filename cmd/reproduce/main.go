// Command reproduce regenerates every experiment of the reproduction in
// one run and emits a self-contained Markdown report: Figure 2, Table I,
// the technology-scaling motivation, and the extension studies. This is
// the "rebuild EXPERIMENTS.md's data" entry point.
//
// Table I and the extension studies run on the scanpower Engine, so the
// circuits fan out across -j workers and every study of the same circuit
// shares one ATPG run. -timeout aborts the whole report cleanly.
//
// Usage:
//
//	reproduce                  # full report to stdout (minutes)
//	reproduce -quick           # small circuits only (seconds)
//	reproduce -o report.md -j 8 -timeout 30m -progress
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/report"
)

func main() {
	quick := flag.Bool("quick", false, "only circuits up to ~700 gates")
	out := flag.String("o", "", "write the report to this file (default stdout)")
	workers := flag.Int("j", runtime.NumCPU(), "parallel circuits for Table I (worker pool size)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
	progress := flag.Bool("progress", false, "stream per-stage progress to stderr")
	flag.Parse()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	cfg := scanpower.DefaultConfig()
	eng := scanpower.NewEngine(cfg)
	eng.Workers = *workers
	if *progress {
		eng.Hooks = scanpower.Hooks{
			OnProgress: func(circuit string, done, total int) {
				fmt.Fprintf(os.Stderr, "reproduce: %d/%d done (%s)\n", done, total, circuit)
			},
		}
	}
	fmt.Fprintln(w, "# scanpower reproduction report")
	fmt.Fprintln(w)

	// Figure 2.
	fmt.Fprintln(w, "## Figure 2 — NAND2 leakage (45 nm)")
	fmt.Fprintln(w)
	f2 := report.New("", "A B", "paper (nA)", "measured (nA)")
	paper := []string{"78", "73", "264", "408"}
	meas := cfg.Leak.Figure2()
	for ab := 0; ab < 4; ab++ {
		f2.MustAddRow(fmt.Sprintf("%d %d", ab>>1&1, ab&1), paper[ab],
			fmt.Sprintf("%.0f", meas[ab]))
	}
	must(f2.Markdown(w))
	fmt.Fprintln(w)

	// Table I.
	names := scanpower.BenchmarkNames()
	if *quick {
		var small []string
		for _, n := range names {
			c, err := scanpower.Benchmark(n)
			if err != nil {
				fatal(err)
			}
			if c.NumGates() <= 700 {
				small = append(small, n)
			}
		}
		names = small
	}
	fmt.Fprintf(w, "## Table I — scan-mode power (%s)\n\n", strings.Join(names, ", "))
	cmps, err := eng.RunAll(ctx, names)
	if err != nil {
		fatal(err)
	}
	must(scanpower.NewTable("", cmps).Markdown(w))
	fmt.Fprintln(w)

	// Motivation trend.
	fmt.Fprintln(w, "## Motivation — static share across technology nodes (traditional scan, 100 MHz shift)")
	fmt.Fprintln(w)
	c641, err := scanpower.Benchmark(pick(names, "s641", names[0]))
	if err != nil {
		fatal(err)
	}
	points, err := eng.StudyTechScaling(ctx, c641, 100e6)
	if err != nil {
		fatal(err)
	}
	ts := report.New("", "node", "VDD", "dynamic µW", "static µW", "static share")
	for _, p := range points {
		ts.MustAddRow(fmt.Sprintf("%d nm", p.NM), fmt.Sprintf("%.2f V", p.VDD),
			fmt.Sprintf("%.2f", p.DynamicUW), fmt.Sprintf("%.2f", p.StaticUW),
			fmt.Sprintf("%.1f%%", p.StaticShare*100))
	}
	must(ts.Markdown(w))
	fmt.Fprintln(w)

	// Extensions on a small circuit. Every study runs on the Engine and
	// shares one ATPG run with the Table I row of the same circuit.
	small, err := scanpower.Benchmark(names[0])
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "## Extensions (%s)\n\n", names[0])
	enh, err := eng.CompareEnhanced(ctx, small)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "- Enhanced scan (full isolation): dynamic %.3e µW/Hz vs proposed %.3e, at +%.1f ps clock period.\n",
		enh.Enhanced.DynamicPerHz, enh.Proposed.DynamicPerHz, enh.DelayPenaltyPS)
	for _, structure := range []string{"traditional", "proposed"} {
		st, err := eng.StudyReordering(ctx, small, structure)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "- Reordering on %s: %.3e → best %.3e µW/Hz (%.1f%% further gain).\n",
			structure, st.Baseline.DynamicPerHz,
			minReport(st), st.BestDynamicGain())
	}
	tp, err := eng.StudyTestPoints(ctx, small, 0.6)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "- Test points ([6]): %d gated lines to cap peak at 60%% (%.1f → %.1f nW/GHz), costing +%.0f ps.\n",
		tp.Points, tp.BasePeakPerHz*1e9, tp.FinalPeakPerHz*1e9, tp.DelayPenaltyPS)
	chains, err := eng.StudyChains(ctx, small)
	if err != nil {
		fatal(err)
	}
	firstCy, lastCy := chains[0], chains[len(chains)-1]
	fmt.Fprintf(w, "- Multi-chain: %d → %d chains cuts shift cycles %d → %d.\n",
		firstCy.Chains, lastCy.Chains, firstCy.ShiftCycles, lastCy.ShiftCycles)

	hits, misses := eng.CacheStats()
	fmt.Fprintf(w, "\n_Total runtime %v (%d ATPG runs, %d served from cache); fully deterministic for DefaultConfig seeds._\n",
		time.Since(start).Round(time.Millisecond), misses, hits)
}

func minReport(st *scanpower.ReorderingStudy) float64 {
	best := st.Baseline.DynamicPerHz
	for _, v := range []float64{st.PatternsReordered.DynamicPerHz,
		st.ChainReordered.DynamicPerHz, st.Both.DynamicPerHz} {
		if v < best {
			best = v
		}
	}
	return best
}

func pick(names []string, want, fallback string) string {
	for _, n := range names {
		if n == want {
			return n
		}
	}
	return fallback
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	os.Exit(1)
}
