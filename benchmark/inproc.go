package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro"
	"repro/internal/atpg"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// table1Circuits are the twelve Table I circuits in the paper's order.
var table1Circuits = scanpower.BenchmarkNames()

// setupProbes is how many times a run sets up to time setup_s.
const setupProbes = 21

// tailLevel is the percentile op_tail_ms reports for a service workload:
// the highest one that keeps at least ten samples beyond it at the job
// counts a default run makes.
var tailLevel = map[string]float64{
	"service-cold": 90,
	"service-hot":  99,
}

// opSample is one timed operation of an in-process workload.
type opSample struct{ wall, cpu time.Duration }

// repeatFor runs op back to back until budget has elapsed, at least once,
// timing each call. An op error ends the loop.
func repeatFor(budget time.Duration, op func() error) ([]opSample, time.Duration, error) {
	start := time.Now()
	var out []opSample
	for len(out) == 0 || time.Since(start) < budget {
		c0, t0 := cpuSelf(), time.Now()
		if err := op(); err != nil {
			return out, time.Since(start), err
		}
		out = append(out, opSample{time.Since(t0), cpuSelf() - c0})
	}
	return out, time.Since(start), nil
}

// inprocEndToEnd turns an untraced in-process run into its end-to-end
// metrics; setup_s comes from fresh processes (probeSetup).
func inprocEndToEnd(name string, seed int64, samples []opSample, elapsed time.Duration) (map[string]float64, error) {
	walls := make([]float64, len(samples))
	cpus := make([]float64, len(samples))
	for i, s := range samples {
		walls[i], cpus[i] = ms(s.wall), ms(s.cpu)
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	setup, err := probeSetup(name, seed)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"op_p50_ms": median(walls),
		// A run makes 3 to 10 operations, too few for any tail percentile
		// (the slowest of eight swings 17% between runs on a quiet host),
		// so the median stands in.
		"op_tail_ms":    median(walls),
		"ops_per_s":     float64(len(samples)) / elapsed.Seconds(),
		"cpu_ms_per_op": median(cpus),
		"peak_rss_mib":  rss,
		"setup_s":       setup,
	}, nil
}

// probeSetup starts this program setupProbes times in -probe-setup mode
// and returns the median seconds from starting the process to its "ready"
// line: process start, package initialisation and the workload's own
// set-up, everything before the first timed operation.
func probeSetup(name string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "-probe-setup", "-workload", name, "-seed", seedKey(seed))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		t0 := time.Now()
		out, err := cmd.Output()
		d := time.Since(t0)
		if err != nil || strings.TrimSpace(string(out)) != "ready" {
			return 0, fmt.Errorf("set-up probe: %v: %s", err, stderr.String())
		}
		secs = append(secs, d.Seconds())
	}
	return median(secs), nil
}

// outputCheck compares each operation's output with the golden digest
// when one is recorded for the seed, and always with the first output of
// the run, counting mismatches.
type outputCheck struct {
	golden, first string
	failed        int
}

func (c *outputCheck) check(b []byte) {
	d := digest(b)
	if c.first == "" {
		c.first = d
	}
	if d != c.first || (c.golden != "" && d != c.golden) {
		c.failed++
	}
}

// table1Input is the set-up of the table1 workload.
type table1Input struct {
	cfg    scanpower.Config
	names  []string // table1Circuits; tests run fewer
	golden string   // digest recorded for the seed, "" if none
	acc    *accuracyFile
}

func prepareTable1(seed int64) (*table1Input, error) {
	g, acc, err := loadGolden()
	if err != nil {
		return nil, err
	}
	cfg := scanpower.DefaultConfig()
	cfg.ATPG.Seed = seed
	cfg.ATPG.Workers = 1
	return &table1Input{cfg: cfg, names: table1Circuits, golden: g.Table1[seedKey(seed)], acc: acc}, nil
}

// engineRun is one table1 operation: the whole Table I through
// Engine.RunAll on a fresh one-worker Engine, so ATPG is paid every time,
// as on every tableone run. hooks observe it in a traced run. It returns
// the comparison/v1 bytes too.
func (in *table1Input) engineRun(ctx context.Context, hooks scanpower.Hooks) ([]*scanpower.Comparison, []byte, error) {
	eng := scanpower.NewEngine(in.cfg)
	eng.Workers = 1
	eng.Hooks = hooks
	cmps, err := eng.RunAll(ctx, in.names)
	if err != nil {
		return nil, nil, err
	}
	var b bytes.Buffer
	if err := scanpower.WriteComparisonsJSON(&b, cmps); err != nil {
		return nil, nil, err
	}
	return cmps, b.Bytes(), nil
}

func runTable1(e env) (*outcome, error) {
	in, err := prepareTable1(e.seed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	chk := &outputCheck{golden: in.golden}
	var cmps []*scanpower.Comparison
	engineOp := func() error {
		c, b, err := in.engineRun(ctx, scanpower.Hooks{})
		if err != nil {
			return err
		}
		cmps = c
		chk.check(b)
		return nil
	}
	rows := func() map[string]*scanpower.Comparison {
		m := map[string]*scanpower.Comparison{}
		for _, c := range cmps {
			m[c.Circuit] = c
		}
		return m
	}

	if !e.trace {
		samples, elapsed, err := repeatFor(e.budget, engineOp)
		if err != nil {
			return nil, err
		}
		v, err := inprocEndToEnd("table1", e.seed, samples, elapsed)
		if err != nil {
			return nil, err
		}
		if e.seed == 1 {
			// The digests already cover these values; a moved error is
			// reported, and fails the run if no operation did.
			mae := maeOf(rows(), in.acc.Paper)
			for i, col := range accuracyColumns {
				if mae[i] != in.acc.Seed1MAEPct[col] {
					fmt.Fprintf(os.Stderr, "accuracy %s moved: %v, recorded %v\n", col, mae[i], in.acc.Seed1MAEPct[col])
					chk.failed = max(chk.failed, 1)
				}
			}
		}
		return &outcome{attempted: len(samples), failed: chk.failed, values: v}, nil
	}

	// Traced run: half the time untraced, half with the Engine's hooks set,
	// after timing circuit generation on its own.
	half := e.budget / 2
	plain, _, err := repeatFor(half, engineOp)
	if err != nil {
		return nil, err
	}
	circs, gen, err := generateProbe(in.names)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var ops []layers
	traced, _, err := repeatFor(e.budget-half, func() error {
		l := layers{}
		c, b, err := in.tracedRun(ctx, tr, l, gen)
		if err != nil {
			return err
		}
		chk.check(b)
		cmps = c
		ops = append(ops, l)
		return nil
	})
	if err != nil {
		return nil, err
	}
	v := medianOf(ops)
	v["ingest.generate_ms"] = gen
	v["sim.compile_ms"] = compileProbe(circs)
	v["telemetry.trace_overhead_pct"] = overheadPct(plain, traced)
	addAccuracy(v, maeOf(rows(), in.acc.Paper))
	if err := tr.write(e.spans); err != nil {
		return nil, err
	}
	return &outcome{attempted: len(plain) + len(traced), failed: chk.failed, values: v}, nil
}

// overheadPct is how much slower the traced operations ran, in percent of
// the untraced median.
func overheadPct(plain, traced []opSample) float64 {
	med := func(s []opSample) float64 {
		w := make([]float64, len(s))
		for i, x := range s {
			w[i] = ms(x.wall)
		}
		return median(w)
	}
	return (med(traced)/med(plain) - 1) * 100
}

// generateProbe generates every named circuit, probeRepeats times, and
// returns the circuits and the median milliseconds one round took: the
// ingest layer's share of a table1 operation, which Engine.RunAll reports
// no hook for. It runs between the timed operations.
func generateProbe(names []string) ([]*netlist.Circuit, float64, error) {
	var circs []*netlist.Circuit
	var rounds []float64
	for i := 0; i < probeRepeats; i++ {
		circs = circs[:0]
		t0 := time.Now()
		for _, name := range names {
			c, err := scanpower.Benchmark(name)
			if err != nil {
				return nil, 0, err
			}
			circs = append(circs, c)
		}
		rounds = append(rounds, ms(time.Since(t0)))
	}
	return circs, median(rounds), nil
}

// compileProbe times sim.Compile three times on each circuit, once per
// structure a table1 operation measures it as (each measurement compiles
// its structure internally, and a structure differs from the circuit by a
// few gates), and returns the total in milliseconds. It runs after the
// timed operations, so it adds nothing to them.
func compileProbe(circs []*netlist.Circuit) float64 {
	t0 := time.Now()
	for _, c := range circs {
		for i := 0; i < 3; i++ {
			sim.Compile(c)
		}
	}
	return ms(time.Since(t0))
}

// tracedRun is one traced table1 operation: the untraced operation with
// the Engine's hooks folding every stage, sub-phase and per-fault callback
// into l and into spans. gen is the generation time of the operation's
// circuits from generateProbe; what the four layers leave of the
// operation's wall time becomes telemetry.unattributed_pct.
func (in *table1Input) tracedRun(ctx context.Context, tr *tracer, l layers, gen float64) ([]*scanpower.Comparison, []byte, error) {
	t := &tableTrace{tr: tr, l: l, root: tr.begin(0, "table1"), circuitStart: time.Now()}
	cmps, b, err := in.engineRun(ctx, t.hooks())
	wall := ms(tr.end(t.root, nil))
	if err != nil {
		return nil, nil, err
	}
	var measure, gateCycles float64
	for _, c := range cmps {
		cycles := float64(c.Traditional.Cycles + c.InputControl.Cycles + c.Proposed.Cycles)
		l["power.cycles"] += cycles
		gateCycles += float64(c.Stats.Gates) * cycles
	}
	attributed := gen + l["atpg.wall_ms"]
	for _, stage := range []string{scanpower.StageTraditional, scanpower.StageInputControl, scanpower.StageProposed} {
		measure += l["power.measure_ms."+stage]
		attributed += l["power.measure_ms."+stage] + l["core.build_ms."+stage]
	}
	l["power.ns_per_gate_cycle"] = measure * 1e6 / gateCycles
	l["telemetry.unattributed_pct"] = (wall - attributed) / wall * 100
	deriveRatios(l)
	return cmps, b, nil
}

// tableTrace turns the Engine's hook callbacks during one table1 operation
// into per-layer values and spans. The Engine runs one circuit at a time
// with one ATPG worker, so the callbacks arrive in order on one goroutine.
//
// A structure stage (traditional, input control, proposed) builds the
// structure and then measures it; the build ends with its last reported
// phase, and the rest of the stage is measurement. Traditional scan has no
// build.
type tableTrace struct {
	tr   *tracer
	l    layers
	root int // the operation's span
	// The open circuit span; its circuit started when the previous one ended.
	circuit      string
	circuitSpan  int
	circuitStart time.Time
	// The open stage span, and the end of its last build phase (zero if none).
	stageSpan  int
	stageStart time.Time
	buildEnd   time.Time
	podem      podemClock
}

func (t *tableTrace) hooks() scanpower.Hooks {
	l := t.l
	return scanpower.Hooks{
		OnStageStart: func(circuit, stage string) {
			if circuit != t.circuit {
				t.circuit = circuit
				t.circuitSpan = t.tr.beginAt(t.root, circuit, t.circuitStart)
			}
			t.stageSpan = t.tr.begin(t.circuitSpan, stage)
			t.stageStart, t.buildEnd = time.Now(), time.Time{}
		},
		OnStageDone: func(circuit, stage string, elapsed time.Duration, info scanpower.StageInfo) {
			t.tr.end(t.stageSpan, nil)
			if stage == scanpower.StageATPG {
				l.addMS("atpg.wall_ms", elapsed)
				l["atpg.backtracks"] += float64(info.Backtracks)
				return
			}
			var build time.Duration
			if !t.buildEnd.IsZero() {
				build = t.buildEnd.Sub(t.stageStart)
				l.addMS("core.build_ms."+stage, build)
			}
			l.addMS("power.measure_ms."+stage, elapsed-build)
		},
		OnProgress: func(circuit string, _, _ int) {
			l.addMS("table1.wall_ms."+circuit, t.tr.end(t.circuitSpan, nil))
			t.circuitStart = time.Now()
		},
		OnSubStage: func(_, stage, sub string, elapsed time.Duration, _ scanpower.StageInfo) {
			t.tr.completed(t.stageSpan, stage+"."+sub, elapsed, nil)
			switch {
			case stage == scanpower.StageATPG:
				t.podem.phase(l, sub, elapsed)
			case sub == "observability":
				l.addMS("obs.observability_ms", elapsed)
				t.buildEnd = time.Now()
			default:
				l.addMS("core."+sub+"_ms", elapsed)
				t.buildEnd = time.Now()
			}
		},
		OnFaultSimBatch: func(_, _ string, _ int, elapsed time.Duration) { t.podem.faultSim(l, elapsed) },
		OnPodemFault:    func(_ string, info scanpower.PodemFaultInfo) { t.podem.fault(l, info.Outcome) },
		OnJustify: func(_ string, info scanpower.JustifyInfo) {
			l["core.justify_attempts"]++
			if info.Success {
				l["core.justify_successes"]++
			}
		},
		OnObsSamples: func(_ string, n int) { l["obs.samples"] += float64(n) },
	}
}

// podemClock splits an ATPG run's deterministic phase by PODEM outcome. An
// attempt's time is the gap since the previous attempt (or the end of the
// random phase) minus the fault-simulation passes inside that gap. With
// one ATPG worker the callbacks arrive in order on one goroutine.
type podemClock struct {
	last   time.Time
	simGap time.Duration
}

// phase records a finished generation phase.
func (p *podemClock) phase(l layers, phase string, d time.Duration) {
	l.addMS("atpg."+phase+"_ms", d)
	if phase == "random" {
		p.last, p.simGap = time.Now(), 0
	}
}

// faultSim records a fault-simulation pass.
func (p *podemClock) faultSim(l layers, d time.Duration) {
	l.addMS("atpg.faultsim_ms", d)
	p.simGap += d
}

// fault records one PODEM attempt's outcome and time.
func (p *podemClock) fault(l layers, outcome string) {
	now := time.Now()
	l["atpg.faults."+outcome]++
	if outcome != atpg.PodemSkipped.String() {
		l.addMS("atpg.podem_ms."+outcome, now.Sub(p.last)-p.simGap)
	}
	p.last, p.simGap = now, 0
}

// deriveRatios turns one operation's outcome counts into its ratios.
func deriveRatios(l layers) {
	if n := l["atpg.faults.detected"] + l["atpg.faults.untestable"] + l["atpg.faults.aborted"]; n > 0 {
		l["atpg.podem_yield"] = l["atpg.faults.detected"] / n
	}
	if n := l["core.justify_attempts"]; n > 0 {
		l["core.justify_success_ratio"] = l["core.justify_successes"] / n
	}
	delete(l, "core.justify_attempts")
	delete(l, "core.justify_successes")
}

// tracedATPG runs atpg.GenerateObserved under a span, folding the
// observer's phases, fault-simulation passes and per-fault outcomes into l.
func tracedATPG(ctx context.Context, c *netlist.Circuit, opts atpg.Options, tr *tracer, l layers) (*atpg.Result, error) {
	id := tr.begin(0, "atpg")
	var p podemClock
	ob := atpg.Observer{
		OnPhase: func(phase string, d time.Duration, patterns int) {
			tr.completed(id, "atpg."+phase, d, map[string]any{"patterns": patterns})
			p.phase(l, phase, d)
		},
		OnFaultSimBatch: func(_ string, _ int, d time.Duration) { p.faultSim(l, d) },
		OnPodemFault:    func(_ atpg.Fault, o atpg.PodemOutcome, _ int) { p.fault(l, o.String()) },
	}
	res, err := atpg.GenerateObserved(ctx, c, opts, ob)
	if err != nil {
		tr.end(id, nil)
		return nil, err
	}
	l.addMS("atpg.wall_ms", tr.end(id, map[string]any{"circuit": c.Name, "patterns": len(res.Patterns)}))
	l["atpg.backtracks"] += float64(res.Backtracks)
	return res, nil
}

// atpgInput is the set-up of the atpg-deep workload: s5378 generated, and
// the options `atpggen -circuit s5378` uses.
type atpgInput struct {
	c      *netlist.Circuit
	opts   atpg.Options
	golden *atpgGolden // nil when no digest is recorded for the seed
}

func prepareATPGDeep(seed int64) (*atpgInput, error) {
	g, _, err := loadGolden()
	if err != nil {
		return nil, err
	}
	c, err := scanpower.Benchmark("s5378")
	if err != nil {
		return nil, err
	}
	opts := atpg.DefaultOptions()
	opts.Seed = seed
	opts.FillChains = 1
	opts.Workers = 1
	in := &atpgInput{c: c, opts: opts}
	if ag, ok := g.ATPGDeep[seedKey(seed)]; ok {
		in.golden = &ag
	}
	return in, nil
}

// atpgBytes is the canonical form of an ATPG result the golden digest
// covers: every pattern as PI and scan-state bits, then the counts.
func atpgBytes(res *atpg.Result) []byte {
	var b bytes.Buffer
	bit := func(v []bool) {
		for _, x := range v {
			if x {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
	}
	for _, p := range res.Patterns {
		bit(p.PI)
		b.WriteByte(' ')
		bit(p.State)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "coverage %.17g untestable %d aborted %d\n", res.Coverage(), res.Untestable, res.Aborted)
	return b.Bytes()
}

func runATPGDeep(e env) (*outcome, error) {
	in, err := prepareATPGDeep(e.seed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	chk := &outputCheck{}
	if in.golden != nil {
		chk.golden = in.golden.Digest
	}
	plainOp := func() error {
		res, err := atpg.GenerateContext(ctx, in.c, in.opts)
		if err != nil {
			return err
		}
		chk.check(atpgBytes(res))
		return nil
	}

	if !e.trace {
		samples, elapsed, err := repeatFor(e.budget, plainOp)
		if err != nil {
			return nil, err
		}
		v, err := inprocEndToEnd("atpg-deep", e.seed, samples, elapsed)
		if err != nil {
			return nil, err
		}
		return &outcome{attempted: len(samples), failed: chk.failed, values: v}, nil
	}

	half := e.budget / 2
	plain, _, err := repeatFor(half, plainOp)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var ops []layers
	traced, _, err := repeatFor(e.budget-half, func() error {
		l := layers{}
		res, err := tracedATPG(ctx, in.c, in.opts, tr, l)
		if err != nil {
			return err
		}
		chk.check(atpgBytes(res))
		deriveRatios(l)
		ops = append(ops, l)
		return nil
	})
	if err != nil {
		return nil, err
	}
	v := medianOf(ops)
	v["telemetry.trace_overhead_pct"] = overheadPct(plain, traced)
	if err := tr.write(e.spans); err != nil {
		return nil, err
	}
	return &outcome{attempted: len(plain) + len(traced), failed: chk.failed, values: v}, nil
}
