// Command scanpower runs the full low-power scan flow on one circuit and
// prints a detailed report: timing, MUX selection, transition blocking,
// leakage vector, and the three-structure power comparison.
//
// The comparison and the -extensions studies run on the scanpower Engine,
// so the expensive ATPG stage executes once and is shared across every
// study of the circuit. -timeout aborts a stuck or oversized run cleanly.
//
// Telemetry: -listen serves /metrics, /debug/vars and /debug/pprof while
// the run executes; -trace writes the span tree as JSON Lines; -manifest
// writes the machine-readable run manifest.
//
// -server submits the experiment to a running scanpowerd (or a
// comma-separated cluster of them) through the typed client instead of
// computing in-process: the job is sharded to its owning node, served
// from the cluster's persistent result store when warm, and the same
// comparison table is printed from the returned document.
//
// Circuits come from -circuit (built-in Table I name), -bench (ISCAS89
// netlist) or -verilog (structural Verilog, primitive subset). An
// optional switching-activity profile — -activity (JSON factors) or
// -activity-vcd (toggle rates extracted from a VCD) — adds the
// weighted-transition metrics to the report, locally and remotely.
//
// Usage:
//
//	scanpower -circuit s344          # synthetic Table I benchmark
//	scanpower -bench path/to/x.bench # real netlist (mapped automatically)
//	scanpower -verilog path/to/x.v -activity act.json
//	scanpower -circuit s9234 -timeout 2m -extensions
//	scanpower -circuit s344 -listen :8080 -trace s344.jsonl -manifest s344.json
//	scanpower -circuit s344 -server http://127.0.0.1:8344,http://127.0.0.1:8345
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/api"
	"repro/client"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/scan"
	"repro/internal/techmap"
	"repro/internal/telemetry"
	"repro/internal/vcd"
	"repro/internal/vectors"
	"repro/internal/verilog"
)

func main() {
	fs := flag.CommandLine
	circuit := fs.String("circuit", "", "Table I benchmark name (e.g. s344)")
	benchFile := fs.String("bench", "", "path to an ISCAS89 .bench file")
	verilogFile := fs.String("verilog", "", "path to a structural Verilog file (primitive subset)")
	activityJSON := fs.String("activity", "", `path to a JSON activity block, e.g. {"default_input":0.2,"inputs":{"G0":0.5}}`)
	activityVCD := fs.String("activity-vcd", "", "path to a VCD whose per-input toggle rates become the activity profile")
	extensions := fs.Bool("extensions", false, "also run the enhanced-scan and reordering extension studies")
	vcdPath := fs.String("vcd", "", "dump the proposed structure's scan-mode waveforms to this VCD file")
	patFile := fs.String("patterns", "", "replay patterns from this vectors file instead of running ATPG (power section only)")
	timeout := cliflags.Timeout(fs, "timeout", 0, "abort the run after this duration (0 = no limit)")
	listen := fs.String("listen", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
	tracePath := fs.String("trace", "", "write the span trace as JSON Lines to this file")
	manifestPath := fs.String("manifest", "", "write the run manifest JSON to this file")
	atpgWorkers := cliflags.ATPGWorkers(fs)
	server := fs.String("server", "", "submit to these scanpowerd base URLs (comma-separated) instead of computing in-process")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	act, err := loadActivity(*activityJSON, *activityVCD)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanpower:", err)
		os.Exit(2)
	}

	if *server != "" {
		if *extensions || *vcdPath != "" || *patFile != "" {
			fmt.Fprintln(os.Stderr, "scanpower: -extensions, -vcd and -patterns run in-process only, not with -server")
			os.Exit(2)
		}
		if err := runRemote(ctx, *server, *circuit, *benchFile, *verilogFile, act, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, "scanpower:", err)
			os.Exit(1)
		}
		return
	}

	var c *netlist.Circuit
	switch {
	case moreThanOne(*circuit != "", *benchFile != "", *verilogFile != ""):
		fmt.Fprintln(os.Stderr, "scanpower: need exactly one of -circuit, -bench or -verilog")
		os.Exit(2)
	case *circuit != "":
		c, err = scanpower.Benchmark(*circuit)
	case *benchFile != "":
		c, err = scanpower.LoadBench(*benchFile)
		if err == nil && !techmap.IsMapped(c, 4) {
			c, err = scanpower.Prepare(c)
		}
	case *verilogFile != "":
		c, err = loadVerilog(*verilogFile)
	default:
		fmt.Fprintln(os.Stderr, "scanpower: need -circuit, -bench or -verilog")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanpower:", err)
		os.Exit(1)
	}

	reg := telemetry.NewRegistry()
	if *listen != "" {
		srv, err := telemetry.ListenAndServe(*listen, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scanpower:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "scanpower: telemetry on http://%s/metrics\n", srv.Addr)
	}
	var tw *telemetry.TraceWriter
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scanpower:", err)
			os.Exit(1)
		}
		defer f.Close()
		tw = telemetry.NewTraceWriter(f)
	}
	rec := scanpower.NewRecorder(reg, tw)
	defer func() {
		rec.Close()
		if *manifestPath != "" {
			if err := rec.Manifest("scanpower").WriteFile(*manifestPath); err != nil {
				fmt.Fprintln(os.Stderr, "scanpower:", err)
			}
		}
	}()

	cfg := scanpower.DefaultConfig()
	if cfg.ATPG.Workers, err = cliflags.ValidateATPGWorkers(*atpgWorkers); err != nil {
		fmt.Fprintln(os.Stderr, "scanpower:", err)
		os.Exit(2)
	}
	if act != nil {
		prof, aerr := act.Profile(piNames(c))
		if aerr != nil {
			fmt.Fprintln(os.Stderr, "scanpower:", aerr.Message)
			os.Exit(2)
		}
		cfg.Activity = prof
	}
	eng := scanpower.NewEngine(cfg)
	eng.Hooks = rec.Hooks()
	st := c.ComputeStats()
	fmt.Printf("circuit      %s\n", st)

	sol, err := core.BuildContext(ctx, c, cfg.Proposed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanpower:", err)
		os.Exit(1)
	}
	fmt.Printf("critical     %.1f ps (unchanged by the DFT modification)\n", sol.Stats.CriticalDelay)
	fmt.Printf("muxed        %d / %d scan cells\n", sol.Stats.MuxCount, st.FFs)
	fmt.Printf("blocking     %d gates blocked, %d unblockable, %d nets still toggling\n",
		sol.Stats.BlockedGates, sol.Stats.FailedGates, sol.Stats.TransitionNets)
	fmt.Printf("vector       %d inputs justified, %d filled for minimum leakage\n",
		sol.Stats.AssignedInputs, sol.Stats.FilledInputs)
	fmt.Printf("reordering   %d gates permuted\n", sol.Stats.ReorderedGates)
	fmt.Printf("quiet gates  %.1f%% of the combinational part\n", sol.BlockedShare()*100)
	fmt.Printf("scan leak    %.2f µW expected (+%.2f µW in the MUX cells)\n",
		cfg.Leak.PowerUW(sol.Stats.ScanLeakNA), cfg.Leak.PowerUW(sol.MuxScanLeakNA(cfg.Leak)))

	if *vcdPath != "" {
		if err := dumpVCD(ctx, *vcdPath, eng, c, sol, *patFile); err != nil {
			fmt.Fprintln(os.Stderr, "scanpower:", err)
			os.Exit(1)
		}
		fmt.Printf("vcd          scan-mode waveforms written to %s\n", *vcdPath)
	}

	if *patFile != "" {
		if err := replayPatterns(c, sol, cfg, *patFile); err != nil {
			fmt.Fprintln(os.Stderr, "scanpower:", err)
			os.Exit(1)
		}
		return
	}

	cmp, err := eng.Compare(ctx, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanpower:", err)
		os.Exit(1)
	}
	printComparison(cmp)

	if !*extensions {
		return
	}
	fmt.Println("\n--- extensions ---")
	enh, err := eng.CompareEnhanced(ctx, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanpower:", err)
		os.Exit(1)
	}
	fmt.Printf("enhanced scan (full isolation): dynamic %.3e µW/Hz, but +%.1f ps on the clock period\n",
		enh.Enhanced.DynamicPerHz, enh.DelayPenaltyPS)
	for _, structure := range []string{"traditional", "proposed"} {
		st, err := eng.StudyReordering(ctx, c, structure)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scanpower:", err)
			os.Exit(1)
		}
		fmt.Printf("reordering on %-12s dynamic %.3e -> patterns %.3e, chain %.3e, both %.3e µW/Hz (best gain %.1f%%)\n",
			structure+":", st.Baseline.DynamicPerHz,
			st.PatternsReordered.DynamicPerHz, st.ChainReordered.DynamicPerHz,
			st.Both.DynamicPerHz, st.BestDynamicGain())
	}
}

// moreThanOne reports whether two or more of the flags are set.
func moreThanOne(flags ...bool) bool {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n > 1
}

// piNames lists the circuit's primary-input net names.
func piNames(c *netlist.Circuit) []string {
	names := make([]string, len(c.PIs))
	for i, pi := range c.PIs {
		names[i] = c.Nets[pi].Name
	}
	return names
}

// loadVerilog parses and library-maps a structural Verilog file.
func loadVerilog(path string) (*netlist.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	c, err := verilog.Parse(f, name)
	if err != nil {
		return nil, err
	}
	if !techmap.IsMapped(c, 4) {
		return scanpower.Prepare(c)
	}
	return c, nil
}

// loadActivity builds the submit-style activity block from the CLI flags.
func loadActivity(jsonPath, vcdPath string) (*api.Activity, error) {
	switch {
	case jsonPath != "" && vcdPath != "":
		return nil, fmt.Errorf("need at most one of -activity and -activity-vcd")
	case jsonPath != "":
		raw, err := os.ReadFile(jsonPath)
		if err != nil {
			return nil, err
		}
		var a api.Activity
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&a); err != nil {
			return nil, fmt.Errorf("%s: %w", jsonPath, err)
		}
		return &a, nil
	case vcdPath != "":
		raw, err := os.ReadFile(vcdPath)
		if err != nil {
			return nil, err
		}
		return &api.Activity{VCD: string(raw)}, nil
	}
	return nil, nil
}

// printComparison renders the three-structure table — the same lines
// whether the comparison was computed here or fetched from a daemon.
func printComparison(cmp *scanpower.Comparison) {
	fmt.Printf("\npatterns     %d (%.1f%% stuck-at coverage)\n", cmp.Patterns, cmp.FaultCoverage*100)
	fmt.Printf("%-14s %14s %12s\n", "structure", "dynamic µW/Hz", "static µW")
	fmt.Printf("%-14s %14.3e %12.2f\n", "traditional", cmp.Traditional.DynamicPerHz, cmp.Traditional.StaticUW)
	fmt.Printf("%-14s %14.3e %12.2f\n", "input-control", cmp.InputControl.DynamicPerHz, cmp.InputControl.StaticUW)
	fmt.Printf("%-14s %14.3e %12.2f\n", "proposed", cmp.Proposed.DynamicPerHz, cmp.Proposed.StaticUW)
	fmt.Printf("\nimprovement vs traditional: dynamic %.2f%%, static %.2f%%\n",
		cmp.DynImprovementVsTraditional(), cmp.StaticImprovementVsTraditional())
	fmt.Printf("improvement vs input-ctrl:  dynamic %.2f%%, static %.2f%%\n",
		cmp.DynImprovementVsInputControl(), cmp.StaticImprovementVsInputControl())
	if a := cmp.Activity; a != nil {
		fmt.Printf("\nactivity (%s, default %.3g): WTM %d total, %.1f per pattern\n",
			a.Source, a.DefaultInput, a.WTMTotal, a.WTMPerPattern)
		fmt.Printf("%-14s %14s\n", "structure", "weighted µW/Hz")
		fmt.Printf("%-14s %14.3e\n", "traditional", a.TraditionalWeightedPerHz)
		fmt.Printf("%-14s %14.3e\n", "input-control", a.InputControlWeightedPerHz)
		fmt.Printf("%-14s %14.3e\n", "proposed", a.ProposedWeightedPerHz)
	}
}

// runRemote submits the experiment to a scanpowerd cluster through the
// typed client — as a source-union body, with the activity block when one
// was given — and prints the returned comparison.
func runRemote(ctx context.Context, servers, circuit, benchFile, verilogFile string, act *api.Activity, timeout time.Duration) error {
	var endpoints []string
	for _, s := range strings.Split(servers, ",") {
		if s = cliflags.NormalizeEndpoint(s); s != "" {
			endpoints = append(endpoints, s)
		}
	}
	cl, err := client.New(endpoints, client.Options{})
	if err != nil {
		return err
	}

	req := client.SubmitRequest{Timeout: timeout, Wait: true, Activity: act}
	switch {
	case moreThanOne(circuit != "", benchFile != "", verilogFile != ""):
		return fmt.Errorf("need exactly one of -circuit, -bench or -verilog")
	case circuit != "":
		req.Source = &api.Source{Circuit: circuit}
	case benchFile != "":
		src, err := os.ReadFile(benchFile)
		if err != nil {
			return err
		}
		req.Source = &api.Source{Bench: string(src),
			Name: strings.TrimSuffix(filepath.Base(benchFile), ".bench")}
	case verilogFile != "":
		src, err := os.ReadFile(verilogFile)
		if err != nil {
			return err
		}
		req.Source = &api.Source{Verilog: string(src),
			Name: strings.TrimSuffix(filepath.Base(verilogFile), filepath.Ext(verilogFile))}
	default:
		return fmt.Errorf("need -circuit, -bench or -verilog")
	}

	job, err := cl.Submit(ctx, req)
	if err != nil {
		return err
	}
	if !job.Terminal() {
		if job, err = cl.Wait(ctx, job); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "scanpower: job %s on %s (%s)\n", job.ID, job.Node, job.State)
	cmp, _, err := cl.Result(ctx, job)
	if err != nil {
		return err
	}
	fmt.Printf("circuit      %s (computed remotely, measure %s)\n", cmp.Circuit, job.Measure)
	printComparison(cmp)
	return nil
}

// loadPatterns reads a vectors file and validates it against c.
func loadPatterns(c *netlist.Circuit, patFile string) ([]scan.Pattern, error) {
	f, err := os.Open(patFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set, err := vectors.Read(f)
	if err != nil {
		return nil, err
	}
	if err := set.Validate(c); err != nil {
		return nil, err
	}
	return set.Patterns, nil
}

// dumpVCD writes the proposed structure's scan waveforms: for the stored
// patterns when patFile is set, else for the Engine's test set of c, the
// one the printed comparison measures.
func dumpVCD(ctx context.Context, path string, eng *scanpower.Engine, c *netlist.Circuit, sol *core.Solution, patFile string) error {
	var pats []scan.Pattern
	var err error
	if patFile != "" {
		pats, err = loadPatterns(sol.Circuit, patFile)
	} else {
		pats, err = eng.Patterns(ctx, c)
	}
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return vcd.DumpScan(f, scan.New(sol.Circuit), pats, sol.Cfg, nil)
}

// replayPatterns measures the three structures on a stored pattern set.
func replayPatterns(c *netlist.Circuit, sol *core.Solution, cfg scanpower.Config, patFile string) error {
	pats, err := loadPatterns(c, patFile)
	if err != nil {
		return err
	}
	trad, err := power.MeasureScanPacked(scan.New(c), pats, scan.Traditional(c), cfg.Leak, cfg.Cap)
	if err != nil {
		return err
	}
	prop, err := power.MeasureScanPacked(scan.New(sol.Circuit), pats, sol.Cfg, cfg.Leak, cfg.Cap)
	if err != nil {
		return err
	}
	fmt.Printf("\nreplayed %d stored patterns\n", len(pats))
	fmt.Printf("%-14s %14s %12s\n", "structure", "dynamic µW/Hz", "static µW")
	fmt.Printf("%-14s %14.3e %12.2f\n", "traditional", trad.DynamicPerHz, trad.StaticUW)
	fmt.Printf("%-14s %14.3e %12.2f\n", "proposed", prop.DynamicPerHz, prop.StaticUW)
	return nil
}
