// Package scanpower is the public API of this repository: a complete
// reproduction of "Simultaneous Reduction of Dynamic and Static Power in
// Scan Structures" (Sharifi, Jaffari, Hosseinabady, Afzali-Kusha, Navabi —
// DATE 2005).
//
// The package glues the substrates together into the paper's experiment:
//
//	circuit (parsed .bench or generated ISCAS89 profile)
//	  → technology mapping to the NAND/NOR/INV 45 nm library
//	  → ATPG (stuck-at PODEM + fault simulation + compaction)
//	  → three scan structures:
//	      traditional scan,
//	      input control (Huang & Lee, TCAD 2001),
//	      the proposed MUX + leakage-observability-directed blocking
//	  → per-structure dynamic (µW/Hz) and static (µW) scan-mode power
//
// Compare produces one row of the paper's Table I; see cmd/tableone for
// the whole table and EXPERIMENTS.md for measured-vs-paper results.
//
// # Context-first API
//
// Every long-running entry point is context-first — Compare, WriteTable,
// CompareEnhanced and StudyReordering here, plus the Engine methods — and
// cancellation and deadlines reach down into the hot loops (ATPG's
// random-pattern and PODEM phases, the justification search, scan-mode
// measurement), so a hung or oversized circuit aborts cleanly with ctx's
// error. Pass context.Background() when no cancellation is needed. See
// README's "v1 API" table for the stable surface; the pre-v1
// CompareContext/WriteTableContext aliases are gone.
//
// # Engine
//
// Engine is the one implementation of every experiment: a
// GOMAXPROCS-bounded worker pool (Run / RunAll / Engine.WriteTable) with a
// shared, memoized ATPG layer keyed by frozen-circuit fingerprint, so
// Compare and every extension study of the same circuit generate patterns
// exactly once. The package-level Compare, CompareEnhanced,
// StudyReordering and WriteTable are wrappers over a fresh Engine. Hooks
// expose per-stage wall time, pattern counts and PODEM backtrack
// counters.
package scanpower

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/iscas"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/scan"
	"repro/internal/techmap"
	"repro/internal/timing"
)

// Config bundles every model and tuning knob of the experiment. The zero
// value is not usable; start from DefaultConfig.
//
// Every stage runs one kernel at 256 lanes: power.MeasureScanPacked,
// obs.EstimatePacked and the packed don't-care fill. Their serial
// references (power.MeasureScan, obs.EstimateObserved, the scalar fill)
// are test oracles, not selectable backends.
type Config struct {
	// ATPG tunes pattern generation. Generate's effort is scaled down
	// automatically for very large circuits unless ScaleATPG is false.
	ATPG      atpg.Options
	ScaleATPG bool
	// Proposed and InputControl configure the two engineered structures.
	Proposed     core.Options
	InputControl core.Options
	// Activity, when non-nil, turns on activity-weighted accounting: the
	// per-input switching activities are propagated as transition
	// densities through each structure's logic and reported alongside the
	// simulated Table I columns (Comparison.Activity), together with the
	// weighted-transition metric of the test set. Activity never changes
	// the simulated columns or the generated patterns.
	Activity *power.ActivityProfile
	// Leak, Cap and Delay are the shared electrical models.
	Leak  *leakage.Model
	Cap   power.CapModel
	Delay timing.DelayModel
}

// DefaultConfig returns the configuration used for all reported
// experiments.
func DefaultConfig() Config {
	leak := leakage.Default()
	cap := power.DefaultCapModel()
	delay := timing.Default()
	prop := core.ProposedOptions()
	prop.Leak, prop.Cap, prop.Delay = leak, cap, delay
	ic := core.InputControlOptions()
	ic.Leak, ic.Cap, ic.Delay = leak, cap, delay
	return Config{
		ATPG:         atpg.DefaultOptions(),
		ScaleATPG:    true,
		Proposed:     prop,
		InputControl: ic,
		Leak:         leak,
		Cap:          cap,
		Delay:        delay,
	}
}

// Comparison is one row of Table I: the three structures measured on one
// circuit with the same test set.
type Comparison struct {
	Circuit  string
	Stats    netlist.Stats
	Patterns int
	// FaultCoverage of the generated test set (identical across the three
	// structures: the modification never touches capture behaviour).
	FaultCoverage float64

	Traditional  power.Report
	InputControl power.Report
	Proposed     power.Report

	ProposedStats     core.Stats
	InputControlStats core.Stats

	// MuxOverheadUW is the scan-mode leakage of the inserted MUX cells
	// themselves (reported separately; Table I counts the combinational
	// part).
	MuxOverheadUW float64

	// Activity holds the activity-weighted extension columns; nil unless
	// Config.Activity was set.
	Activity *ActivityResult
}

// ActivityResult extends a Comparison with activity-weighted figures: the
// stimulus-independent dynamic-power estimate of each structure under the
// submitted switching-activity profile, plus the weighted-transition
// metric (Sankaralingam) of the shared test set — the scan-power
// estimator "Power Management during Scan Based Sequential Circuit
// Testing" evaluates shift power with.
type ActivityResult struct {
	// Source is where the profile came from: "profile" (explicit factors)
	// or "vcd" (extracted from a dump).
	Source string
	// DefaultInput is the activity applied to unlisted inputs and scan
	// cells.
	DefaultInput float64
	// Inputs echoes the per-input activity factors the job resolved to.
	Inputs map[string]float64
	// WTMTotal is the weighted transition metric summed over the test
	// set, for the scan-in order of the traditional chain; WTMPerPattern
	// is its per-pattern mean.
	WTMTotal      int
	WTMPerPattern float64
	// TraditionalWeightedPerHz, InputControlWeightedPerHz and
	// ProposedWeightedPerHz are the activity-weighted dynamic estimates
	// per structure, in µW/Hz like the simulated columns.
	TraditionalWeightedPerHz  float64
	InputControlWeightedPerHz float64
	ProposedWeightedPerHz     float64
}

// DynImprovementVsTraditional returns the Table I "Improvement Compared
// with Traditional Scan (%) / Dynamic" entry.
func (c *Comparison) DynImprovementVsTraditional() float64 {
	return power.Improvement(c.Traditional.DynamicPerHz, c.Proposed.DynamicPerHz)
}

// StaticImprovementVsTraditional returns the static counterpart.
func (c *Comparison) StaticImprovementVsTraditional() float64 {
	return power.Improvement(c.Traditional.StaticUW, c.Proposed.StaticUW)
}

// DynImprovementVsInputControl returns the Table I "Improvement Compared
// With Input Control (%) / Dynamic" entry.
func (c *Comparison) DynImprovementVsInputControl() float64 {
	return power.Improvement(c.InputControl.DynamicPerHz, c.Proposed.DynamicPerHz)
}

// StaticImprovementVsInputControl returns the static counterpart.
func (c *Comparison) StaticImprovementVsInputControl() float64 {
	return power.Improvement(c.InputControl.StaticUW, c.Proposed.StaticUW)
}

// Compare runs the full Table I experiment on the frozen circuit c, which
// must already be mapped to the library (use Prepare). ctx reaches the
// ATPG phases, the structure builds and the power measurement, so the
// experiment aborts promptly with ctx's error when cancelled. Matching
// failures wrap ErrNotMapped. It is Engine.Compare on a fresh Engine.
func Compare(ctx context.Context, c *netlist.Circuit, cfg Config) (*Comparison, error) {
	return NewEngine(cfg).Compare(ctx, c)
}

// runStage runs body in a stage scope of ctx's circuit under a
// guaranteed start/done pair: the done event, reporting a test set of
// patterns, is deferred and fires on the error and panic paths too (with
// Failed set), so span accounting stays balanced however the experiment
// ends.
func runStage(ctx context.Context, name string, patterns int, body func(ctx context.Context) error) error {
	ctx, sc := probe.Stage(ctx, name)
	start := time.Now()
	ok := false
	defer func() {
		sc.Emit(probe.Event{Kind: probe.StageDone, Elapsed: time.Since(start),
			Patterns: patterns, Failed: !ok})
	}()
	err := body(ctx)
	ok = err == nil
	return err
}

// compareWith is the Table I pipeline: the patterns come from the
// Engine's memoized layer, and every stage reports to the probe scope ctx
// carries.
func (e *Engine) compareWith(ctx context.Context, c *netlist.Circuit, cfg Config) (*Comparison, error) {
	if !techmap.IsMapped(c, 4) {
		return nil, fmt.Errorf("scanpower: circuit %s: %w; call Prepare", c.Name, ErrNotMapped)
	}
	// scaledATPG keeps the deterministic phase affordable on the big
	// circuits: lean on random patterns, cap PODEM effort per fault and
	// in total (PODEM re-implies the full cone per decision).
	res, err := e.patternsFor(ctx, c, cfg)
	if err != nil {
		return nil, fmt.Errorf("scanpower: ATPG: %w", err)
	}

	cmp := &Comparison{
		Circuit:       c.Name,
		Stats:         c.ComputeStats(),
		Patterns:      len(res.Patterns),
		FaultCoverage: res.Coverage(),
	}
	// Traditional scan.
	if err := runStage(ctx, StageTraditional, len(res.Patterns), func(ctx context.Context) error {
		var err error
		cmp.Traditional, err = power.MeasureScanPacked(ctx, scan.New(c), res.Patterns, scan.Traditional(c),
			cfg.Leak, cfg.Cap)
		return err
	}); err != nil {
		return nil, err
	}

	// Input-control baseline.
	var icSol *core.Solution
	if err := runStage(ctx, StageInputControl, len(res.Patterns), func(ctx context.Context) error {
		var err error
		icSol, err = core.BuildContext(ctx, c, cfg.InputControl)
		if err != nil {
			return fmt.Errorf("scanpower: input-control build: %w", err)
		}
		cmp.InputControlStats = icSol.Stats
		cmp.InputControl, err = power.MeasureScanPacked(ctx, scan.New(icSol.Circuit), res.Patterns, icSol.Cfg,
			cfg.Leak, cfg.Cap)
		return err
	}); err != nil {
		return nil, err
	}

	// Proposed structure.
	var sol *core.Solution
	if err := runStage(ctx, StageProposed, len(res.Patterns), func(ctx context.Context) error {
		var err error
		sol, err = core.BuildContext(ctx, c, cfg.Proposed)
		if err != nil {
			return fmt.Errorf("scanpower: proposed build: %w", err)
		}
		cmp.ProposedStats = sol.Stats
		cmp.Proposed, err = power.MeasureScanPacked(ctx, scan.New(sol.Circuit), res.Patterns, sol.Cfg,
			cfg.Leak, cfg.Cap)
		return err
	}); err != nil {
		return nil, err
	}
	cmp.MuxOverheadUW = cfg.Leak.PowerUW(sol.MuxScanLeakNA(cfg.Leak))

	if cfg.Activity != nil {
		// Activity-weighted extension columns. The WTM uses the scan-in
		// order of the traditional chain (scan.New's flop order), shared
		// by every structure: the test set never changes across them.
		order := make([]int, c.NumFFs())
		for i := range order {
			order[i] = i
		}
		wtm := power.TestSetWTM(res.Patterns, order)
		ar := &ActivityResult{
			Source:       cfg.Activity.Source,
			DefaultInput: cfg.Activity.Default,
			Inputs:       cfg.Activity.Inputs,
			WTMTotal:     wtm,
		}
		if n := len(res.Patterns); n > 0 {
			ar.WTMPerPattern = float64(wtm) / float64(n)
		}
		// Traditional scan blocks nothing; the engineered structures only
		// count the nets their shift configuration leaves toggling.
		ar.TraditionalWeightedPerHz = cfg.Cap.WeightedDynamicPerHz(c, cfg.Activity)
		ar.InputControlWeightedPerHz = cfg.Cap.WeightedDynamicPerHzOn(icSol.Circuit, cfg.Activity, icSol.Trans)
		ar.ProposedWeightedPerHz = cfg.Cap.WeightedDynamicPerHzOn(sol.Circuit, cfg.Activity, sol.Trans)
		cmp.Activity = ar
	}
	return cmp, nil
}

// Prepare maps an arbitrary parsed circuit onto the NAND/NOR/INV library
// used by the experiments.
func Prepare(c *netlist.Circuit) (*netlist.Circuit, error) {
	return techmap.Map(c, techmap.DefaultOptions())
}

// LoadBench parses an ISCAS89 .bench file from disk. Parse failures wrap
// ErrBadBench.
func LoadBench(path string) (*netlist.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), ".bench")
	c, err := bench.Parse(f, name)
	if err != nil {
		return nil, fmt.Errorf("scanpower: %w: %w", ErrBadBench, err)
	}
	return c, nil
}

// ParseBench parses .bench source text. Parse failures wrap ErrBadBench.
func ParseBench(src, name string) (*netlist.Circuit, error) {
	c, err := bench.ParseString(src, name)
	if err != nil {
		return nil, fmt.Errorf("scanpower: %w: %w", ErrBadBench, err)
	}
	return c, nil
}

// Benchmark generates (deterministically) the synthetic stand-in for one
// of the twelve Table I ISCAS89 circuits, already library-mapped. Every
// call generates a fresh circuit the caller may mutate; nothing is
// cached. Generation is linear in circuit size: s9234 takes about 10 ms
// on a 2-vCPU Xeon.
func Benchmark(name string) (*netlist.Circuit, error) {
	p, ok := iscas.ByName(name)
	if !ok {
		return nil, fmt.Errorf("scanpower: %w: %q", ErrUnknownBenchmark, name)
	}
	return iscas.Generate(p)
}

// BenchmarkNames lists the Table I circuits in the paper's order.
func BenchmarkNames() []string {
	names := make([]string, len(iscas.Profiles))
	for i, p := range iscas.Profiles {
		names[i] = p.Name
	}
	return names
}

// TableHeader returns the Table I column header for WriteRow output.
func TableHeader() string {
	return fmt.Sprintf("%-8s %12s %10s %12s %10s %12s %10s %8s %8s %8s %8s",
		"Circuit",
		"Trad dyn/f", "Trad stat",
		"IC dyn/f", "IC stat",
		"Prop dyn/f", "Prop stat",
		"dyn%T", "stat%T", "dyn%IC", "stat%IC")
}

// Row renders the comparison as one Table I row.
func (c *Comparison) Row() string {
	return fmt.Sprintf("%-8s %12.3e %10.2f %12.3e %10.2f %12.3e %10.2f %8.2f %8.2f %8.2f %8.2f",
		c.Circuit,
		c.Traditional.DynamicPerHz, c.Traditional.StaticUW,
		c.InputControl.DynamicPerHz, c.InputControl.StaticUW,
		c.Proposed.DynamicPerHz, c.Proposed.StaticUW,
		c.DynImprovementVsTraditional(), c.StaticImprovementVsTraditional(),
		c.DynImprovementVsInputControl(), c.StaticImprovementVsInputControl())
}

// WriteTable runs Compare over the named benchmarks and streams rows to w,
// strictly sequentially, stopping at the first circuit whose experiment
// fails or returns ctx's error. It is Engine.WriteTable with one worker;
// more workers emit byte-identical output.
func WriteTable(ctx context.Context, w io.Writer, names []string, cfg Config) error {
	return (&Engine{Cfg: cfg, Workers: 1}).WriteTable(ctx, w, names)
}

// TableColumns lists the Table I column headers used by NewTable.
func TableColumns() []string {
	return []string{"Circuit",
		"Trad dyn (uW/Hz)", "Trad static (uW)",
		"IC dyn (uW/Hz)", "IC static (uW)",
		"Prop dyn (uW/Hz)", "Prop static (uW)",
		"dyn% vs Trad", "stat% vs Trad", "dyn% vs IC", "stat% vs IC"}
}

// Cells renders the comparison as Table I cells (matching TableColumns).
func (c *Comparison) Cells() []string {
	f := func(v float64) string { return fmt.Sprintf("%.3e", v) }
	p := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	return []string{c.Circuit,
		f(c.Traditional.DynamicPerHz), p(c.Traditional.StaticUW),
		f(c.InputControl.DynamicPerHz), p(c.InputControl.StaticUW),
		f(c.Proposed.DynamicPerHz), p(c.Proposed.StaticUW),
		p(c.DynImprovementVsTraditional()), p(c.StaticImprovementVsTraditional()),
		p(c.DynImprovementVsInputControl()), p(c.StaticImprovementVsInputControl())}
}

// NewTable assembles comparisons into a report.Table ready for text,
// Markdown or CSV rendering.
func NewTable(title string, cmps []*Comparison) *report.Table {
	t := report.New(title, TableColumns()...)
	for _, c := range cmps {
		t.MustAddRow(c.Cells()...)
	}
	return t
}
