package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/atpg"
)

// TestTable1SmokeS344 runs one table1 repetition on s344 both ways: the
// Engine result must match the recorded per-circuit digest, and the traced
// run must produce the same bytes with its layers covering the time.
func TestTable1SmokeS344(t *testing.T) {
	in, err := prepareTable1(1)
	if err != nil {
		t.Fatal(err)
	}
	in.names = []string{"s344"}
	g, _, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cmps, plain, err := in.engineRun(ctx, scanpower.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	row, err := json.Marshal(cmps[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digest(row), g.Circuits["s344"]; got != want {
		t.Errorf("s344 digest %s, recorded %s", got, want)
	}

	circs, gen, err := generateProbe(in.names)
	if err != nil {
		t.Fatal(err)
	}
	if len(circs) != 1 || gen <= 0 {
		t.Fatalf("generate probe: %d circuits in %v ms", len(circs), gen)
	}
	l := layers{}
	_, traced, err := in.tracedRun(ctx, newTracer(), l, gen)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, traced) {
		t.Error("the hooks changed the Engine.RunAll output")
	}
	for _, name := range []string{"atpg.wall_ms", "atpg.random_ms", "core.build_ms.proposed", "core.blocking_ms",
		"power.measure_ms.traditional", "power.measure_ms.proposed", "table1.wall_ms.s344",
		"power.ns_per_gate_cycle", "power.cycles", "obs.samples", "core.justify_success_ratio"} {
		if l[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, l[name])
		}
	}
	if _, ok := l["core.build_ms.traditional"]; ok {
		t.Error("traditional scan reported a structure build")
	}
	// The four layers cover the repetition; anything else (stats, result
	// bookkeeping) must be a sliver. The bar is loose for a 5 ms circuit.
	if u := l["telemetry.unattributed_pct"]; u < -25 || u > 25 {
		t.Errorf("unattributed %.1f%% of the repetition", u)
	}
}

// TestATPGTracedMatchesPlain checks the observed generation returns the
// same patterns and that the outcome counts match the result's.
func TestATPGTracedMatchesPlain(t *testing.T) {
	c, err := scanpower.Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	opts := atpg.DefaultOptions()
	ctx := context.Background()
	plain, err := atpg.GenerateContext(ctx, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	l := layers{}
	traced, err := tracedATPG(ctx, c, opts, newTracer(), l)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(atpgBytes(plain), atpgBytes(traced)) {
		t.Error("observed generation changed the result")
	}
	if got := int(l["atpg.faults.untestable"]); got != plain.Untestable {
		t.Errorf("untestable outcomes %d, result says %d", got, plain.Untestable)
	}
	if got := int(l["atpg.faults.aborted"]); got != plain.Aborted {
		t.Errorf("aborted outcomes %d, result says %d", got, plain.Aborted)
	}
	if got := int(l["atpg.backtracks"]); got != plain.Backtracks {
		t.Errorf("backtracks %d, result says %d", got, plain.Backtracks)
	}
}

// buildDaemon compiles scanpowerd for the service smoke tests.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and starts scanpowerd")
	}
	bin := filepath.Join(t.TempDir(), "scanpowerd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/scanpowerd").CombinedOutput(); err != nil {
		t.Fatalf("build scanpowerd: %v\n%s", err, out)
	}
	return bin
}

// TestServiceColdSmoke runs one block, six inline jobs, against a real
// daemon and checks every result against its golden digest.
func TestServiceColdSmoke(t *testing.T) {
	e := env{name: "service-cold", seed: 1, budget: time.Nanosecond, work: t.TempDir(), daemon: buildDaemon(t)}
	out, err := runServiceCold(e)
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted != len(coldCircuits) || out.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want %d jobs, none failed", out.attempted, out.failed, len(coldCircuits))
	}
	for _, d := range endToEnd {
		if out.values[d.Name] <= 0 {
			t.Errorf("%s = %v, want > 0", d.Name, out.values[d.Name])
		}
	}
}

// TestServiceHotTracedSmoke fills the store, restarts on it and runs the
// traced path: every measured job is served without Engine work.
func TestServiceHotTracedSmoke(t *testing.T) {
	e := env{name: "service-hot", seed: 1, budget: time.Nanosecond, trace: true, work: t.TempDir(),
		daemon: buildDaemon(t)}
	e.spans = filepath.Join(e.work, "spans.jsonl")
	out, err := runServiceHot(e)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%d of %d jobs failed", out.failed, out.attempted)
	}
	v := out.values
	if v["store.hits"] != float64(len(table1Circuits)) || v["store.puts"] != 0 {
		t.Errorf("store hits %v puts %v; want one read per circuit and no writes", v["store.hits"], v["store.puts"])
	}
	if v["ingest.generate_ms"] <= 0 || v["store.get_ms"] <= 0 || v["service.overhead_ms"] <= 0 {
		t.Errorf("missing layer times: %v", v)
	}
}
