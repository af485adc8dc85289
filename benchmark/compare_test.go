package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// series builds seed-keyed run values 1..n.
func series(vals ...float64) map[int64]float64 {
	m := map[int64]float64{}
	for i, v := range vals {
		m[int64(i+1)] = v
	}
	return m
}

func TestVerdict(t *testing.T) {
	tight := series(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	scale := func(m map[int64]float64, f float64) map[int64]float64 {
		out := map[int64]float64{}
		for k, v := range m {
			out[k] = v * f
		}
		return out
	}
	cases := []struct {
		name     string
		old, new map[int64]float64
		better   string
		bound    float64
		floor    float64
		want     string
	}{
		{"same runs", tight, tight, "lower", 0.1, 0, unchanged},
		{"20% slower", tight, scale(tight, 1.2), "lower", 0.1, 0, worse},
		{"5% slower, inside the bound", tight, scale(tight, 1.05), "lower", 0.1, 0, unchanged},
		{"20% faster", tight, scale(tight, 0.8), "lower", 0.1, 0, improved},
		{"higher is better, 20% lower", tight, scale(tight, 0.8), "higher", 0.1, 0, worse},
		{"higher is better, 20% higher", tight, scale(tight, 1.2), "higher", 0.1, 0, improved},
		{"better by less than the parent's spread", series(100, 90, 110, 95, 105, 100, 92, 108, 97, 103),
			series(98, 88, 108, 93, 103, 98, 90, 106, 95, 101), "lower", 0.25, 0, unchanged},
		{"noisy parent", series(100, 150, 60, 120, 80, 140, 70, 110, 90, 130), tight, "lower", 0.1, 0, unresolved},
		{"noisy but every new run wins", series(100, 150, 120, 130, 110, 140, 125, 135, 115, 145),
			series(50, 60, 70, 80, 90, 55, 65, 75, 85, 95), "lower", 0.1, 0, improved},
		{"noisy, every new run wins, but by less than the parent's spread",
			series(100, 70, 130, 85, 115, 95, 105, 75, 125, 90), series(69, 69, 69, 69, 69, 69, 69, 69, 69, 69),
			"lower", 0.1, 0, unchanged},
		{"under the absolute floor", series(0.010, 0.010, 0.011, 0.010, 0.010),
			series(0.013, 0.013, 0.014, 0.013, 0.013), "lower", 0.25, 0.05, unchanged},
		{"no runs on one side", tight, nil, "lower", 0.1, 0, unresolved},
	}
	for _, c := range cases {
		if got, _ := verdict(c.old, c.new, c.better, c.bound, c.floor); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// ledgerWith builds a ledger of ten untraced table1 runs whose op_p50_ms
// is base plus a small seed-dependent wobble.
func ledgerWith(base float64) *ledgerFile {
	led := &ledgerFile{Schema: ledgerSchema}
	for seed := int64(1); seed <= 10; seed++ {
		v := base * (1 + float64(seed%3)/100)
		led.Runs = append(led.Runs, ledgerRun{Workload: "table1", Seed: seed, Result: Result{
			Correct: true, Attempted: 8, Metrics: map[string]Metric{"op_p50_ms": {Value: v, Unit: "ms"}}}})
	}
	return led
}

func TestCompareLedgers(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	spec := `{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`
	if err := os.WriteFile(bounds, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, led *ledgerFile) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, led); err != nil {
			t.Fatal(err)
		}
		return p
	}
	parent := write("parent.json", ledgerWith(2500))
	for _, c := range []struct {
		base      float64
		wantWorse bool
		verdict   string
	}{
		{2500, false, unchanged},
		{3000, true, worse},
		{2000, false, improved},
	} {
		var out strings.Builder
		gotWorse, err := compareLedgers(&out, bounds, parent, write("change.json", ledgerWith(c.base)))
		if err != nil {
			t.Fatal(err)
		}
		if gotWorse != c.wantWorse || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("change at %v: worse=%v, output:\n%s\nwant worse=%v and %q",
				c.base, gotWorse, out.String(), c.wantWorse, c.verdict)
		}
	}
	if _, err := compareLedgers(&strings.Builder{}, bounds, bounds, parent); err == nil {
		t.Error("a file without the ledger schema was accepted")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}
