package scanpower

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// runWithRecorder executes a small Table I run with a live Recorder and
// returns the recorder, its registry, and the raw trace.
func runWithRecorder(t *testing.T, names []string, workers int) (*Recorder, *telemetry.Registry, *bytes.Buffer) {
	t.Helper()
	reg := telemetry.NewRegistry()
	var traceBuf bytes.Buffer
	tw := telemetry.NewTraceWriter(&traceBuf)
	rec := NewRecorder(reg, tw)

	eng := NewEngine(DefaultConfig())
	eng.Workers = workers
	eng.Hooks = rec.Hooks()
	if _, err := eng.RunAll(context.Background(), names); err != nil {
		t.Fatal(err)
	}
	rec.Close()
	if open := tw.OpenSpans(); open != 0 {
		t.Errorf("trace left %d spans open after Close", open)
	}
	return rec, reg, &traceBuf
}

// TestRecorderEndToEnd: a concurrent Engine run through the Recorder must
// populate every metric family, produce a balanced and correctly nested
// trace, and yield a manifest that round-trips through encoding/json.
func TestRecorderEndToEnd(t *testing.T) {
	names := []string{"s344", "s382"}
	rec, reg, traceBuf := runWithRecorder(t, names, 2)

	// Metrics: the counter families of every instrumented layer are live.
	snap := reg.Snapshot()
	for _, key := range []string{
		MetricStageSeconds + `_count{stage="atpg"}`,
		MetricStageSeconds + `_count{stage="traditional"}`,
		MetricStageSeconds + `_count{stage="input-control"}`,
		MetricStageSeconds + `_count{stage="proposed"}`,
		MetricPodemFaults + `{outcome="detected"}`,
		MetricPodemBacktracks + `_count`,
		MetricJustify + `{result="success"}`,
		MetricObsSamples,
		MetricPatterns,
		MetricCacheMisses,
		MetricCircuitsDone,
	} {
		if snap[key] <= 0 {
			t.Errorf("metric %s = %v, want > 0 (snapshot %v)", key, snap[key], snap)
		}
	}
	if got := snap[MetricCircuitsDone]; got != float64(len(names)) {
		t.Errorf("circuits done = %v, want %d", got, len(names))
	}

	// Trace: every start has an end, and stage spans nest under their
	// circuit span which nests under the single run span.
	assertTraceNesting(t, traceBuf, names)

	// Manifest: populated, and stable through a JSON round-trip.
	m := rec.Manifest("test")
	if len(m.Circuits) != len(names) {
		t.Fatalf("manifest has %d circuits, want %d", len(m.Circuits), len(names))
	}
	for _, cm := range m.Circuits {
		if len(cm.Stages) != 4 {
			t.Errorf("circuit %s recorded %d stages, want 4", cm.Name, len(cm.Stages))
		}
		for _, st := range cm.Stages {
			if st.Patterns == 0 {
				t.Errorf("circuit %s stage %s reports zero patterns", cm.Name, st.Stage)
			}
		}
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := telemetry.ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("manifest JSON is not stable across a round-trip")
	}
}

// assertTraceNesting parses the JSONL trace and checks the run → circuit
// → stage hierarchy with balanced start/end pairs.
func assertTraceNesting(t *testing.T, traceBuf *bytes.Buffer, circuits []string) {
	t.Helper()
	type spanRec struct{ name, parentName string }
	spans := map[int64]spanRec{} // started spans by id
	ended := map[int64]bool{}
	var runID int64
	sc := bufio.NewScanner(bytes.NewReader(traceBuf.Bytes()))
	for sc.Scan() {
		var ev telemetry.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line is not JSON: %v: %s", err, sc.Text())
		}
		switch ev.Ev {
		case "start":
			parentName := ""
			if p, ok := spans[ev.Parent]; ok {
				parentName = p.name
			}
			spans[ev.ID] = spanRec{name: ev.Name, parentName: parentName}
			if ev.Name == "run" {
				if runID != 0 {
					t.Error("trace has more than one run span")
				}
				runID = ev.ID
			}
		case "end":
			if _, ok := spans[ev.ID]; !ok {
				t.Errorf("end for unknown span %d (%s)", ev.ID, ev.Name)
			}
			if ended[ev.ID] {
				t.Errorf("span %d (%s) ended twice", ev.ID, ev.Name)
			}
			ended[ev.ID] = true
		case "span": // completed sub-stage: parent must be a started span
			if _, ok := spans[ev.Parent]; !ok {
				t.Errorf("sub-span %s has unknown parent %d", ev.Name, ev.Parent)
			}
		default:
			t.Errorf("unknown trace event %q", ev.Ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if runID == 0 {
		t.Fatal("trace has no run span")
	}
	for id, s := range spans {
		if !ended[id] {
			t.Errorf("span %d (%s) never ended", id, s.name)
		}
	}
	stageNames := map[string]bool{
		StageATPG: true, StageTraditional: true,
		StageInputControl: true, StageProposed: true,
	}
	circuitSet := map[string]bool{}
	for _, c := range circuits {
		circuitSet[c] = true
	}
	sawStages := 0
	for _, s := range spans {
		switch {
		case s.name == "run":
		case circuitSet[s.name]:
			if s.parentName != "run" {
				t.Errorf("circuit span %s nests under %q, want run", s.name, s.parentName)
			}
		case stageNames[s.name]:
			sawStages++
			if !circuitSet[s.parentName] {
				t.Errorf("stage span %s nests under %q, want a circuit", s.name, s.parentName)
			}
		default:
			t.Errorf("unexpected span name %q", s.name)
		}
	}
	if want := 4 * len(circuits); sawStages != want {
		t.Errorf("trace has %d stage spans, want %d", sawStages, want)
	}
}

// TestTelemetryDebugServerScrape: the debug server serves the registry a
// run populated, in Prometheus text form with expanded histogram series.
func TestTelemetryDebugServerScrape(t *testing.T) {
	_, reg, _ := runWithRecorder(t, []string{"s344"}, 1)
	srv, err := telemetry.ListenAndServe("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE scanpower_stage_seconds histogram",
		`scanpower_stage_seconds_bucket{stage="atpg",le="+Inf"} 1`,
		`scanpower_podem_faults_total{outcome="detected"}`,
		"scanpower_patterns_measured_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestRecorderNilSinks: a Recorder with no registry and no trace writer
// still accumulates the manifest and never panics.
func TestRecorderNilSinks(t *testing.T) {
	rec := NewRecorder(nil, nil)
	eng := NewEngine(DefaultConfig())
	eng.Hooks = rec.Hooks()
	if _, err := eng.RunAll(context.Background(), []string{"s344"}); err != nil {
		t.Fatal(err)
	}
	rec.Close()
	m := rec.Manifest("nil-sinks")
	if len(m.Circuits) != 1 || len(m.Circuits[0].Stages) != 4 {
		t.Errorf("manifest = %+v, want one circuit with four stages", m.Circuits)
	}
	if m.Counters != nil {
		t.Errorf("nil registry must yield nil counters, got %v", m.Counters)
	}
}

// TestRecorderCircuitError: failures reported after the fact land in the
// manifest entry of the right circuit.
func TestRecorderCircuitError(t *testing.T) {
	rec := NewRecorder(nil, nil)
	rec.Hooks().OnStageStart("sX", StageATPG)
	rec.CircuitError("sX", fmt.Errorf("boom"))
	rec.CircuitError("sY", fmt.Errorf("late"))
	rec.Close()
	m := rec.Manifest("")
	if len(m.Circuits) != 2 {
		t.Fatalf("manifest has %d circuits, want 2", len(m.Circuits))
	}
	byName := map[string]telemetry.CircuitManifest{}
	for _, cm := range m.Circuits {
		byName[cm.Name] = cm
	}
	if byName["sX"].Err != "boom" || byName["sY"].Err != "late" {
		t.Errorf("errors not recorded: %+v", m.Circuits)
	}
}

// TestMergeHooksAllFire: merged hook sets must both observe every event
// class, in argument order.
func TestMergeHooksAllFire(t *testing.T) {
	var order []string
	mk := func(tag string) Hooks {
		return Hooks{
			OnStageStart: func(string, string) { order = append(order, tag+".start") },
			OnPodemFault: func(string, PodemFaultInfo) { order = append(order, tag+".podem") },
		}
	}
	h := MergeHooks(mk("a"), Hooks{}, mk("b"))
	h.OnStageStart("c", StageATPG)
	h.OnPodemFault("c", PodemFaultInfo{})
	want := []string{"a.start", "b.start", "a.podem", "b.podem"}
	if len(order) != len(want) {
		t.Fatalf("events = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("events = %v, want %v", order, want)
		}
	}
}

// TestRecorderMCBatches: a run must surface the packed Monte-Carlo
// kernels in telemetry — a live lane counter and
// per-batch "mc-batch" spans tagged with their kind, nested under the
// structure-build stages.
func TestRecorderMCBatches(t *testing.T) {
	_, reg, traceBuf := runWithRecorder(t, []string{"s344"}, 1)

	snap := reg.Snapshot()
	if snap[MetricMCLanes] <= 0 {
		t.Errorf("metric %s = %v, want > 0", MetricMCLanes, snap[MetricMCLanes])
	}

	kinds := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(traceBuf.Bytes()))
	for sc.Scan() {
		var ev struct {
			Name  string `json:"name"`
			Attrs struct {
				Kind  string `json:"kind"`
				Lanes int    `json:"lanes"`
			} `json:"attrs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue
		}
		if ev.Name != "mc-batch" || ev.Attrs.Kind == "" {
			continue
		}
		if ev.Attrs.Lanes < 1 || ev.Attrs.Lanes > sim.WideLanes {
			t.Errorf("mc-batch span carries %d lanes", ev.Attrs.Lanes)
		}
		kinds[ev.Attrs.Kind]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if kinds["obs"] == 0 {
		t.Error("no obs mc-batch spans in trace")
	}
	if kinds["fill"] == 0 {
		t.Error("no fill mc-batch spans in trace")
	}
}
