// Command benchmark is the repository's performance ledger. It runs one of
// four named workloads for a fixed time, checks every output against golden
// digests, and prints its metrics as one JSON object on the last line of
// standard output: the end-to-end metrics of an untraced run, or with
// -trace 1 the per-layer metrics of a traced run. README.md defines every
// workload and metric.
//
// Usage, from the repository root (run.sh builds this package and the
// scanpowerd daemon first):
//
//	bash benchmark/run.sh -workload table1 -seed 1 -seconds 25 -trace 0
//	bash benchmark/run.sh -ledger ../parent old.json new.json
//	bash benchmark/run.sh -compare old.json new.json
//	bash benchmark/run.sh -update-golden
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions; TestBenchmarkJSONMatchesMetrics keeps them in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics of an untraced run, reported for every workload.
// An operation is one Table I run (table1), one s5378 ATPG run (atpg-deep)
// or one job as its client sees it (service-cold, service-hot).
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of a traced run. A layer the workload does not
// exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"ingest.generate_ms", "ms", "lower"},
		{"ingest.parse_ms", "ms", "lower"},
		{"ingest.techmap_ms", "ms", "lower"},
		{"atpg.wall_ms", "ms", "lower"},
		{"atpg.random_ms", "ms", "lower"},
		{"atpg.podem_ms", "ms", "lower"},
		{"atpg.compact_ms", "ms", "lower"},
		{"atpg.faultsim_ms", "ms", "lower"},
		{"atpg.podem_ms.detected", "ms", "lower"},
		{"atpg.podem_ms.untestable", "ms", "lower"},
		{"atpg.podem_ms.aborted", "ms", "lower"},
		{"atpg.faults.detected", "count", "higher"},
		{"atpg.faults.untestable", "count", "higher"},
		{"atpg.faults.aborted", "count", "lower"},
		{"atpg.faults.skipped", "count", "lower"},
		{"atpg.backtracks", "count", "lower"},
		{"atpg.podem_yield", "ratio", "higher"},
		{"core.build_ms.input-control", "ms", "lower"},
		{"core.build_ms.proposed", "ms", "lower"},
		{"core.blocking_ms", "ms", "lower"},
		{"core.fill_ms", "ms", "lower"},
		{"core.reorder_ms", "ms", "lower"},
		{"core.justify_success_ratio", "ratio", "higher"},
		{"obs.observability_ms", "ms", "lower"},
		{"obs.samples", "count", "lower"},
		{"power.measure_ms.traditional", "ms", "lower"},
		{"power.measure_ms.input-control", "ms", "lower"},
		{"power.measure_ms.proposed", "ms", "lower"},
		{"power.cycles", "count", "lower"},
		{"power.ns_per_gate_cycle", "ns", "lower"},
		{"sim.compile_ms", "ms", "lower"},
	}
	for _, name := range table1Circuits {
		defs = append(defs, metricDef{"table1.wall_ms." + name, "ms", "lower"})
	}
	return append(defs,
		metricDef{"service.queue_ms", "ms", "lower"},
		metricDef{"service.run_ms", "ms", "lower"},
		metricDef{"service.overhead_ms", "ms", "lower"},
		metricDef{"service.coalesced_frac", "ratio", "higher"},
		metricDef{"store.hits", "count", "higher"},
		metricDef{"store.misses", "count", "lower"},
		metricDef{"store.puts", "count", "lower"},
		metricDef{"store.get_ms", "ms", "lower"},
		metricDef{"store.put_ms", "ms", "lower"},
		metricDef{"telemetry.trace_overhead_pct", "%", "lower"},
		metricDef{"telemetry.unattributed_pct", "%", "lower"},
		metricDef{"accuracy.mae_dyn_vs_traditional_pct", "%", "lower"},
		metricDef{"accuracy.mae_stat_vs_traditional_pct", "%", "lower"},
		metricDef{"accuracy.mae_dyn_vs_input_control_pct", "%", "lower"},
		metricDef{"accuracy.mae_stat_vs_input_control_pct", "%", "lower"},
	)
}()

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the document printed as the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// env is what every workload receives from the command line.
type env struct {
	name   string // workload
	seed   int64
	budget time.Duration // measured time of the run
	trace  bool
	work   string // scratch directory inside the checkout
	daemon string // scanpowerd binary (service workloads)
	spans  string // JSONL span file of a traced run
}

// outcome is what a workload run measured, before it becomes a Result.
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

// workload is one named workload: run measures it, and setup, for the
// in-process workloads, performs only its set-up (-probe-setup).
type workload struct {
	name  string
	run   func(env) (*outcome, error)
	setup func(seed int64) error
}

// workloads in the order they run and print.
var workloads = []workload{
	{"table1", runTable1, func(seed int64) error { _, err := prepareTable1(seed); return err }},
	{"atpg-deep", runATPGDeep, func(seed int64) error { _, err := prepareATPGDeep(seed); return err }},
	{"service-cold", runServiceCold, nil},
	{"service-hot", runServiceHot, nil},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "table1, atpg-deep, service-cold or service-hot")
	seed := flag.Int64("seed", 1, "workload seed: ATPG seed (table1, atpg-deep) or job order and names (service-*)")
	seconds := flag.Int("seconds", 25, "how long the run measures (BENCHMARK.json run_seconds)")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	work := flag.String("work", ".bench_build", "scratch directory for daemon stores, probes and span files")
	daemon := flag.String("daemon", "", "scanpowerd binary for the service workloads")
	spans := flag.String("spans", "", "span file of a traced run (default <work>/spans-<workload>-<seed>.jsonl)")
	probe := flag.Bool("probe-setup", false, "set up -workload, print ready and exit (used to time set-up)")
	ledger := flag.Bool("ledger", false, "measure this checkout against a parent: -ledger PARENT_DIR OLD.json NEW.json")
	compare := flag.Bool("compare", false, "compare two ledger files: -compare OLD.json NEW.json")
	bounds := flag.String("bounds", "BENCHMARK.json", "BENCHMARK.json whose bounds -compare applies")
	update := flag.Bool("update-golden", false, "recompute the golden digests and accuracy into -golden-dir")
	goldenDir := flag.String("golden-dir", "benchmark/testdata", "where -update-golden writes")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs OLD.json NEW.json")
			os.Exit(2)
		}
		var worse bool
		worse, err = compareLedgers(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
		if err == nil && worse {
			os.Exit(1)
		}
	case *ledger:
		if flag.NArg() != 3 {
			fmt.Fprintln(os.Stderr, "benchmark: -ledger needs PARENT_DIR OLD.json NEW.json")
			os.Exit(2)
		}
		err = writeLedger(flag.Arg(0), flag.Arg(1), flag.Arg(2), *seconds, *work, *daemon)
	case *update:
		err = updateGolden(*goldenDir)
	case *probe:
		w, ok := findWorkload(*name)
		if !ok || w.setup == nil {
			err = fmt.Errorf("no in-process set-up for workload %q", *name)
			break
		}
		if err = w.setup(*seed); err == nil {
			fmt.Println("ready")
		}
	default:
		e := env{name: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1,
			work: *work, daemon: *daemon, spans: *spans}
		if e.spans == "" {
			e.spans = filepath.Join(e.work, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		}
		err = runWorkload(*name, e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload and prints its Result. A run whose outputs
// do not all match exits non-zero after printing.
func runWorkload(name string, e env) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want table1, atpg-deep, service-cold or service-hot)", name)
	}
	if e.budget <= 0 {
		return errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	out, err := w.run(e)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	res := Result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]Metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok && !e.trace {
			return fmt.Errorf("%s: no value for %s", name, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: %s is %v (no operation succeeded?)", name, d.Name, v)
		}
		res.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	printSummary(name, e, &res)
	line, err := json.Marshal(&res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or mismatched their golden output",
			name, res.Failed, res.Attempted)
	}
	return nil
}

// printSummary writes the run's metrics to standard error, one per line.
func printSummary(name string, e env, r *Result) {
	mode := "untraced"
	if e.trace {
		mode = "traced"
	}
	fmt.Fprintf(os.Stderr, "# %s seed %d, %s, %d operations, %d failed\n",
		name, e.seed, mode, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "#   %-40s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}
