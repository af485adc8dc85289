// Command tableone regenerates the paper's Table I: scan-mode dynamic and
// static power of the combinational part under traditional scan, the
// input-control baseline, and the proposed structure, for the twelve
// ISCAS89 benchmark profiles.
//
// The experiments run on the scanpower Engine: -j bounds the worker pool
// (default GOMAXPROCS), -timeout aborts the whole run cleanly after the
// given duration, and -progress streams per-stage timings to stderr.
//
// Telemetry: -listen serves /metrics (Prometheus text), /debug/vars
// (expvar) and /debug/pprof on the given address while the run executes;
// -trace writes the run → circuit → stage span tree as JSON Lines;
// -manifest writes a machine-readable run manifest (environment, config,
// per-circuit stage timings, metric snapshot, results) — the payload of
// `make bench-json`.
//
// Usage:
//
//	tableone [-circuits s344,s382,...] [-markdown] [-j N] [-timeout 5m] [-progress]
//	         [-listen :8080] [-trace trace.jsonl] [-manifest run.json]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/atpg"
	"repro/internal/cliflags"
	"repro/internal/telemetry"
)

func main() {
	fs := flag.CommandLine
	circuits := fs.String("circuits", "", "comma-separated circuit names (default: all twelve)")
	markdown := fs.Bool("markdown", false, "emit a Markdown table (for EXPERIMENTS.md)")
	workers := cliflags.Workers(fs, "j", runtime.NumCPU(), "circuits to process in parallel (worker pool size)")
	timeout := cliflags.Timeout(fs, "timeout", 0, "abort the whole run after this duration (0 = no limit)")
	progress := fs.Bool("progress", false, "stream per-stage progress to stderr")
	listen := fs.String("listen", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
	tracePath := fs.String("trace", "", "write the span trace as JSON Lines to this file")
	manifestPath := fs.String("manifest", "", "write the run manifest JSON to this file")
	atpgWorkers := cliflags.ATPGWorkers(fs)
	flag.Parse()

	names := scanpower.BenchmarkNames()
	if *circuits != "" {
		names = strings.Split(*circuits, ",")
	}
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	reg := telemetry.NewRegistry()
	if *listen != "" {
		srv, err := telemetry.ListenAndServe(*listen, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tableone:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "tableone: telemetry on http://%s/metrics\n", srv.Addr)
	}
	var tw *telemetry.TraceWriter
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tableone:", err)
			os.Exit(1)
		}
		defer f.Close()
		tw = telemetry.NewTraceWriter(f)
	}
	rec := scanpower.NewRecorder(reg, tw)

	cfg := scanpower.DefaultConfig()
	var err error
	if cfg.ATPG.Workers, err = cliflags.ValidateATPGWorkers(*atpgWorkers); err != nil {
		fmt.Fprintln(os.Stderr, "tableone:", err)
		os.Exit(2)
	}
	eng := scanpower.NewEngine(cfg)
	eng.Workers = *workers
	eng.Hooks = rec.Hooks()
	if *progress {
		eng.Hooks = scanpower.MergeHooks(progressHooks("tableone"), rec.Hooks())
	}

	cmps, err := eng.RunAll(ctx, names)
	rec.Close()
	if *manifestPath != "" {
		if werr := writeManifest(*manifestPath, rec, names, *workers, cmps); werr != nil {
			fmt.Fprintln(os.Stderr, "tableone:", werr)
			if err == nil {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tableone:", err)
		os.Exit(1)
	}

	if *markdown {
		fmt.Println("| Circuit | Trad dyn (µW/Hz) | Trad static (µW) | IC dyn (µW/Hz) | IC static (µW) | Prop dyn (µW/Hz) | Prop static (µW) | dyn% vs Trad | stat% vs Trad | dyn% vs IC | stat% vs IC |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|")
	} else {
		fmt.Println(scanpower.TableHeader())
	}
	for _, cmp := range cmps {
		if *markdown {
			fmt.Printf("| %s | %.3e | %.2f | %.3e | %.2f | %.3e | %.2f | %.2f | %.2f | %.2f | %.2f |\n",
				cmp.Circuit,
				cmp.Traditional.DynamicPerHz, cmp.Traditional.StaticUW,
				cmp.InputControl.DynamicPerHz, cmp.InputControl.StaticUW,
				cmp.Proposed.DynamicPerHz, cmp.Proposed.StaticUW,
				cmp.DynImprovementVsTraditional(), cmp.StaticImprovementVsTraditional(),
				cmp.DynImprovementVsInputControl(), cmp.StaticImprovementVsInputControl())
		} else {
			fmt.Println(cmp.Row())
		}
		fmt.Fprintf(os.Stderr, "# %s: %d patterns, %.1f%% coverage, %d/%d flops muxed\n",
			cmp.Circuit, cmp.Patterns, cmp.FaultCoverage*100,
			cmp.ProposedStats.MuxCount, cmp.Stats.FFs)
	}
}

// writeManifest assembles and writes the run manifest: the Recorder's
// stage record plus the run configuration and the rendered result table.
func writeManifest(path string, rec *scanpower.Recorder, names []string,
	workers int, cmps []*scanpower.Comparison) error {

	m := rec.Manifest("tableone")
	m.Workers = workers
	cfgJSON, err := json.Marshal(struct {
		Circuits []string     `json:"circuits"`
		ATPG     atpg.Options `json:"atpg"`
	}{names, scanpower.DefaultConfig().ATPG})
	if err != nil {
		return err
	}
	m.Config = cfgJSON
	if len(cmps) > 0 {
		// Results carry the scanpower/comparison/v1 wire form — the same
		// marshaller the scanpowerd service answers with, so manifests and
		// service responses agree byte for byte.
		var buf bytes.Buffer
		if err := scanpower.WriteComparisonsJSON(&buf, cmps); err != nil {
			return err
		}
		m.Results = buf.Bytes()
	}
	return m.WriteFile(path)
}

// progressHooks reports Engine stages and completions on stderr.
func progressHooks(tool string) scanpower.Hooks {
	return scanpower.Hooks{
		OnStageDone: func(circuit, stage string, elapsed time.Duration, info scanpower.StageInfo) {
			extra := ""
			if stage == scanpower.StageATPG {
				if info.CacheHit {
					extra = " (cached)"
				} else {
					extra = fmt.Sprintf(" (%d patterns, %d backtracks)", info.Patterns, info.Backtracks)
				}
			}
			fmt.Fprintf(os.Stderr, "%s: %s %s %v%s\n", tool, circuit, stage,
				elapsed.Round(time.Millisecond), extra)
		},
		OnProgress: func(circuit string, done, total int) {
			fmt.Fprintf(os.Stderr, "%s: %d/%d done (%s)\n", tool, done, total, circuit)
		},
	}
}
