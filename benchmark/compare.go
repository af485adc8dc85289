package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// ledgerSchema tags the files -ledger writes and -compare reads.
const ledgerSchema = "scanpower/bench-ledger/v1"

// ledgerRun is one benchmark invocation and the Result it printed.
type ledgerRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   Result `json:"result"`
}

// ledgerFile is a set of runs of one commit on one host.
type ledgerFile struct {
	Schema  string      `json:"schema"`
	Created string      `json:"created"`
	Host    hostInfo    `json:"host"`
	Seconds int         `json:"seconds"`
	Runs    []ledgerRun `json:"runs"`
}

type hostInfo struct {
	CPUs      int    `json:"cpus"`
	CPUModel  string `json:"cpu_model,omitempty"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
}

func thisHost() hostInfo {
	h := hostInfo{CPUs: runtime.NumCPU(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version()}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// ledgerRuns is how many untraced runs, seeds 1..ledgerRuns, a ledger makes
// of each workload on each side.
const ledgerRuns = 10

// ledgerSide is one checkout a ledger runs: how to start its benchmark,
// and the runs it has made.
type ledgerSide struct {
	dir  string   // working directory of its runs
	argv []string // its benchmark command, before the run's own flags
	led  ledgerFile
}

// run makes one benchmark run of this side and records its Result.
func (s *ledgerSide) run(w string, seed int64, seconds int, trace bool) error {
	tr := "0"
	if trace {
		tr = "1"
	}
	args := append(append([]string(nil), s.argv[1:]...),
		"-workload", w, "-seed", seedKey(seed), "-seconds", fmt.Sprint(seconds), "-trace", tr)
	cmd := exec.Command(s.argv[0], args...)
	cmd.Dir = s.dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s: %s seed %d trace %s: %w", s.dir, w, seed, tr, err)
	}
	r, err := lastResult(out)
	if err != nil {
		return fmt.Errorf("%s: %s seed %d: %w", s.dir, w, seed, err)
	}
	s.led.Runs = append(s.led.Runs, ledgerRun{Workload: w, Seed: seed, Trace: trace, Result: r})
	return nil
}

// writeLedger measures a change against its parent. The parent is the
// checkout at parentDir, run through its own benchmark/run.sh; the change
// is this program. Every workload runs untraced with seeds 1..ledgerRuns,
// then once traced with seed 1. The two sides alternate run by run, and
// which of them goes first swaps from seed to seed, so a slow period of the
// host falls on both. The parent's runs go to oldPath and the change's to
// newPath, and each file's spreads are printed.
func writeLedger(parentDir, oldPath, newPath string, seconds int, work, daemon string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	now := time.Now().UTC().Format(time.RFC3339)
	side := func(dir string, argv ...string) *ledgerSide {
		return &ledgerSide{dir: dir, argv: argv,
			led: ledgerFile{Schema: ledgerSchema, Created: now, Host: thisHost(), Seconds: seconds}}
	}
	old := side(parentDir, "bash", "benchmark/run.sh")
	cur := side(cwd, self, "-work", work, "-daemon", daemon)
	for _, w := range workloads {
		for seed := int64(1); seed <= ledgerRuns+1; seed++ {
			// The last round is the traced one, with seed 1.
			s, trace := seed, seed > ledgerRuns
			if trace {
				s = 1
			}
			first, second := old, cur
			if seed%2 == 0 {
				first, second = cur, old
			}
			if err := first.run(w.name, s, seconds, trace); err != nil {
				return err
			}
			if err := second.run(w.name, s, seconds, trace); err != nil {
				return err
			}
		}
	}
	for _, f := range []struct {
		path string
		s    *ledgerSide
	}{{oldPath, old}, {newPath, cur}} {
		if err := writeJSON(f.path, &f.s.led); err != nil {
			return err
		}
		fmt.Printf("%s (%s)\n", f.path, f.s.dir)
		printSpreads(os.Stdout, &f.s.led)
	}
	return nil
}

// lastResult parses the Result on the last non-empty line of out.
func lastResult(out []byte) (Result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("last output line is not a result: %w", err)
	}
	return r, nil
}

// printSpreads writes, per workload and end-to-end metric, the median,
// quartiles and spread of a ledger's untraced runs.
func printSpreads(w io.Writer, led *ledgerFile) {
	fmt.Fprintf(w, "%-13s %-14s %5s %12s %12s %12s %8s\n", "workload", "metric", "n", "q1", "median", "q3", "spread")
	for _, wk := range workloads {
		wl := wk.name
		for _, d := range endToEnd {
			vals := runValues(led, wl, d.Name)
			if len(vals) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(valuesOf(vals))
			fmt.Fprintf(w, "%-13s %-14s %5d %12.5g %12.5g %12.5g %7.2f%%\n", wl, d.Name, len(vals), q1, q2, q3,
				spread(valuesOf(vals))*100)
		}
	}
}

// runValues returns one end-to-end metric of a workload's untraced runs,
// keyed by seed.
func runValues(led *ledgerFile, workload, metric string) map[int64]float64 {
	out := map[int64]float64{}
	for _, r := range led.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out[r.Seed] = m.Value
		}
	}
	return out
}

func valuesOf(m map[int64]float64) []float64 {
	var xs []float64
	for _, v := range m {
		xs = append(xs, v)
	}
	return xs
}

// absFloor is a change, in the metric's own unit, too small to count as a
// regression whatever its share of the median: set-up and memory are small
// on the smaller workloads, where a few milliseconds or MiB are noise.
var absFloor = map[string]float64{"setup_s": 0.05, "peak_rss_mib": 8}

// Verdicts of compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict classifies one end-to-end metric of one workload between the
// runs of a parent (old) and a change (new), keyed by seed. The runs of a
// seed were made next to each other (writeLedger), so a seed pair shares
// the host's state.
//
//   - unresolved when either side's spread (interquartile range over
//     median) exceeds the bound, unless every new run beats every old one;
//     then improved if the medians differ by more than the old runs'
//     spread, and unchanged if not;
//   - worse when the new median is worse than the old by more than the
//     bound (and by more than the metric's absolute floor);
//   - improved when the new run wins at least nine tenths of the seed pairs
//     and the medians differ by more than the old runs' spread;
//   - unchanged otherwise.
//
// change is the median's relative change, positive when worse.
func verdict(old, new map[int64]float64, better string, bound, floor float64) (v string, change float64) {
	if len(old) == 0 || len(new) == 0 {
		return unresolved, math.NaN()
	}
	beats := func(a, b float64) bool {
		if better == "higher" {
			return a > b
		}
		return a < b
	}
	m0, m1 := median(valuesOf(old)), median(valuesOf(new))
	change = (m1 - m0) / math.Abs(m0)
	if better == "higher" {
		change = -change
	}
	clear := -change > spread(valuesOf(old))
	if math.Max(spread(valuesOf(old)), spread(valuesOf(new))) > bound {
		for _, n := range new {
			for _, o := range old {
				if !beats(n, o) {
					return unresolved, change
				}
			}
		}
		if clear {
			return improved, change
		}
		return unchanged, change
	}
	if change > bound && math.Abs(m1-m0) > floor {
		return worse, change
	}
	pairs, wins := 0, 0
	for seed, o := range old {
		if n, ok := new[seed]; ok {
			pairs++
			if beats(n, o) {
				wins++
			}
		}
	}
	if pairs > 0 && wins*10 >= pairs*9 && clear {
		return improved, change
	}
	return unchanged, change
}

// benchmarkSpec is the part of BENCHMARK.json compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readLedger(path string) (*ledgerFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led ledgerFile
	if err := json.Unmarshal(raw, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if led.Schema != ledgerSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, led.Schema, ledgerSchema)
	}
	return &led, nil
}

// compareLedgers prints a verdict for every (end-to-end metric, workload)
// pair of two ledgers under the bounds in boundsPath, then the per-layer
// medians of their traced runs side by side. It reports whether any pair
// got worse.
func compareLedgers(w io.Writer, boundsPath, oldPath, newPath string) (bool, error) {
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", boundsPath, err)
	}
	old, err := readLedger(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readLedger(newPath)
	if err != nil {
		return false, err
	}
	anyWorse := false
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-13s %-14s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "old median", "new median", "change", "old iqr", "new iqr", "bound", "verdict")
	for _, wk := range workloads {
		wl := wk.name
		for _, m := range spec.EndToEnd {
			o, n := runValues(old, wl, m.Name), runValues(cur, wl, m.Name)
			if len(o) == 0 && len(n) == 0 {
				continue
			}
			v, change := verdict(o, n, m.Better, m.Bound, absFloor[m.Name])
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(bw, "%-13s %-14s %12.5g %12.5g %7.2f%% %7.2f%% %7.2f%% %5.1f%%  %s\n",
				wl, m.Name, median(valuesOf(o)), median(valuesOf(n)), change*100,
				spread(valuesOf(o))*100, spread(valuesOf(n))*100, m.Bound*100, v)
		}
	}
	fmt.Fprintf(bw, "\nper-layer medians of the traced runs (no bounds)\n")
	for _, wk := range workloads {
		wl := wk.name
		o, n := tracedMetrics(old, wl), tracedMetrics(cur, wl)
		for _, d := range perLayer {
			a, b := o[d.Name], n[d.Name]
			if len(a) == 0 && len(b) == 0 || (median(a) == 0 && median(b) == 0) {
				continue
			}
			fmt.Fprintf(bw, "%-13s %-40s %12.5g %12.5g %s\n", wl, d.Name, median(a), median(b), d.Unit)
		}
	}
	if err := bw.Flush(); err != nil {
		return false, err
	}
	return anyWorse, nil
}

// tracedMetrics gathers every per-layer value of a workload's traced runs.
func tracedMetrics(led *ledgerFile, workload string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range led.Runs {
		if r.Workload == workload && r.Trace {
			for name, m := range r.Result.Metrics {
				out[name] = append(out[name], m.Value)
			}
		}
	}
	return out
}
