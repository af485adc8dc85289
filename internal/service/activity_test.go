package service

// Tests of the redesigned submit body: the source union, the activity
// block, and the 422 error envelopes the consolidated validator produces
// for every invalid combination — through the real HTTP handler, so what
// is pinned here is the wire behavior, not just the validator.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"

	"repro"
	"repro/internal/store"
)

// s27Verilog is the s27 test circuit as structural Verilog, with the same
// primary-input names as s27Bench so activity profiles apply to both.
const s27Verilog = `module s27v (G0, G1, G2, G3, G17);
  input G0, G1, G2, G3;
  output G17;
  wire G5, G6, G7, G8, G9, G10, G11, G12, G13, G14, G15, G16;
  dff d1 (G5, G10);
  dff d2 (G6, G11);
  dff d3 (G7, G13);
  not n1 (G14, G0);
  not n2 (G17, G11);
  and a1 (G8, G14, G6);
  or o1 (G15, G12, G8);
  or o2 (G16, G3, G8);
  nand na1 (G9, G16, G15);
  nor no1 (G10, G14, G11);
  nor no2 (G11, G5, G9);
  nor no3 (G12, G1, G7);
  nor no4 (G13, G2, G12);
endmodule
`

// s27VCD toggles G0 on every cycle and G2 once; G1/G3 never change.
const s27VCD = "$timescale 1ns $end\n" +
	"$var wire 1 ! G0 $end\n" +
	"$var wire 1 \" G1 $end\n" +
	"$var wire 1 # G2 $end\n" +
	"$enddefinitions $end\n" +
	"#0\n0!\n0\"\n0#\n" +
	"#1\n1!\n" +
	"#2\n0!\n1#\n" +
	"#3\n1!\n" +
	"#4\n0!\n"

// Two .bench sources with a doubly-driven net: z from two gates, q from
// two flip-flops.
const (
	benchTwoGates = "INPUT(a)\nOUTPUT(z)\nq = DFF(z)\nz = AND(a, q)\nz = OR(a, q)\n"
	benchTwoFFs   = "INPUT(a)\nOUTPUT(z)\nq = DFF(z)\nz = AND(a, q)\nq = DFF(a)\n"
)

// TestSubmitUnionValidationEnvelopes drives every invalid source-union and
// activity combination through POST /v1/jobs and checks the status and
// error-envelope code of each.
func TestSubmitUnionValidationEnvelopes(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, QueueSize: 2})

	cases := []struct {
		name   string
		body   map[string]any
		status int
		code   string
	}{
		{"empty union", map[string]any{"source": map[string]any{}},
			http.StatusUnprocessableEntity, "bad_source"},
		{"two discriminants", map[string]any{
			"source": map[string]any{"circuit": "s344", "bench": s27Bench}},
			http.StatusUnprocessableEntity, "bad_source"},
		{"three discriminants", map[string]any{
			"source": map[string]any{"circuit": "s344", "bench": s27Bench, "verilog": s27Verilog}},
			http.StatusUnprocessableEntity, "bad_source"},
		{"name on builtin", map[string]any{
			"source": map[string]any{"circuit": "s344", "name": "x"}},
			http.StatusUnprocessableEntity, "bad_source"},
		{"union plus legacy circuit", map[string]any{
			"circuit": "s344", "source": map[string]any{"circuit": "s344"}},
			http.StatusUnprocessableEntity, "bad_source"},
		{"union plus legacy bench", map[string]any{
			"bench": s27Bench, "source": map[string]any{"circuit": "s344"}},
			http.StatusUnprocessableEntity, "bad_source"},
		{"union plus legacy name", map[string]any{
			"name": "x", "source": map[string]any{"bench": s27Bench}},
			http.StatusUnprocessableEntity, "bad_source"},
		{"bad verilog", map[string]any{
			"source": map[string]any{"verilog": "module m (a, y);\n input a;\n output y;\n frobnicate u1 (y, a);\nendmodule\n"}},
			http.StatusUnprocessableEntity, "bad_verilog"},
		{"bare module statement", map[string]any{
			"source": map[string]any{"verilog": "module"}},
			http.StatusUnprocessableEntity, "bad_verilog"},
		{"bench net driven by two gates", map[string]any{
			"source": map[string]any{"bench": benchTwoGates}},
			http.StatusUnprocessableEntity, "bad_bench"},
		{"bench net driven by two flip-flops", map[string]any{
			"source": map[string]any{"bench": benchTwoFFs}},
			http.StatusUnprocessableEntity, "bad_bench"},
		{"verilog net driven by two gates", map[string]any{
			"source": map[string]any{"verilog": "module m (a, y);\n input a;\n output y;\n not u1 (y, a);\n not u2 (y, a);\nendmodule\n"}},
			http.StatusUnprocessableEntity, "bad_verilog"},
		{"empty activity", map[string]any{
			"source": map[string]any{"circuit": "s344"}, "activity": map[string]any{}},
			http.StatusUnprocessableEntity, "bad_activity"},
		{"vcd plus factors", map[string]any{
			"source":   map[string]any{"circuit": "s344"},
			"activity": map[string]any{"vcd": s27VCD, "default_input": 0.2}},
			http.StatusUnprocessableEntity, "bad_activity"},
		{"factor out of range", map[string]any{
			"source":   map[string]any{"circuit": "s344"},
			"activity": map[string]any{"inputs": map[string]any{"PI0": 1.5}}},
			http.StatusUnprocessableEntity, "bad_activity"},
		{"unknown activity input", map[string]any{
			"source":   map[string]any{"circuit": "s344"},
			"activity": map[string]any{"inputs": map[string]any{"nope": 0.5}}},
			http.StatusUnprocessableEntity, "bad_activity"},
		{"vcd naming no input", map[string]any{
			"source":   map[string]any{"circuit": "s344"},
			"activity": map[string]any{"vcd": "$var wire 1 ! other $end\n$enddefinitions $end\n#0\n0!\n#1\n"}},
			http.StatusUnprocessableEntity, "bad_activity"},
		{"garbage vcd", map[string]any{
			"source":   map[string]any{"circuit": "s344"},
			"activity": map[string]any{"vcd": "not a vcd"}},
			http.StatusUnprocessableEntity, "bad_activity"},
		// Legacy error bytes must survive the redesign untouched.
		{"legacy both set", map[string]any{"circuit": "s344", "bench": s27Bench},
			http.StatusBadRequest, "bad_request"},
		{"legacy neither set", map[string]any{},
			http.StatusBadRequest, "bad_request"},
		{"unknown union benchmark", map[string]any{
			"source": map[string]any{"circuit": "sXXX"}},
			http.StatusNotFound, "unknown_benchmark"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := postJob(t, srv.URL, tc.body)
			if code != tc.status {
				t.Fatalf("status %d, want %d (%v)", code, tc.status, body)
			}
			if got := errCode(t, body); got != tc.code {
				t.Errorf("code %q, want %q (%v)", got, tc.code, body)
			}
		})
	}
}

// fetchResult retrieves and decodes a done job's result document.
func fetchResult(t *testing.T, base, resultURL string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + resultURL)
	if err != nil {
		t.Fatalf("GET %s: %v", resultURL, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d (%s)", resultURL, resp.StatusCode, raw)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	return doc
}

// waitSubmit runs one wait-mode submit to completion and returns the
// result document.
func waitSubmit(t *testing.T, base string, body map[string]any) map[string]any {
	t.Helper()
	body["wait"] = true
	code, _, resp := postJob(t, base, body)
	if code != http.StatusOK {
		t.Fatalf("wait submit: status %d (%v)", code, resp)
	}
	if st := resp["state"]; st != "done" {
		t.Fatalf("job settled in state %v (err %v)", st, resp["error"])
	}
	u, _ := resp["result_url"].(string)
	return fetchResult(t, base, u)
}

// TestVerilogActivityJob runs a Verilog submit with an explicit activity
// profile end to end and checks the weighted columns appear — and that
// the same circuit without activity keeps the pre-activity document
// shape.
func TestVerilogActivityJob(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, QueueSize: 4})

	doc := waitSubmit(t, srv.URL, map[string]any{
		"source": map[string]any{"verilog": s27Verilog},
		"activity": map[string]any{
			"default_input": 0.1,
			"inputs":        map[string]any{"G0": 0.9},
		},
	})
	act, ok := doc["activity"].(map[string]any)
	if !ok {
		t.Fatalf("result has no activity block: %v", doc)
	}
	if act["source"] != "profile" {
		t.Errorf("activity.source = %v, want profile", act["source"])
	}
	if act["default_input"] != 0.1 {
		t.Errorf("activity.default_input = %v, want 0.1", act["default_input"])
	}
	for _, key := range []string{"wtm_total", "wtm_per_pattern",
		"traditional_weighted_per_hz", "input_control_weighted_per_hz",
		"proposed_weighted_per_hz"} {
		v, ok := act[key].(float64)
		if !ok || v < 0 {
			t.Errorf("activity.%s = %v, want a non-negative number", key, act[key])
		}
	}
	if w, _ := act["traditional_weighted_per_hz"].(float64); w <= 0 {
		t.Errorf("traditional weighted dynamic should be positive, got %v", w)
	}
	// The module statement's own name labels the circuit.
	if doc["circuit"] != "s27v" {
		t.Errorf("circuit = %v, want s27v", doc["circuit"])
	}

	// Same circuit, no activity: the document must not grow the key.
	plain := waitSubmit(t, srv.URL, map[string]any{
		"source": map[string]any{"verilog": s27Verilog},
	})
	if _, ok := plain["activity"]; ok {
		t.Fatalf("plain job leaked an activity block: %v", plain)
	}
	// The simulated columns are activity-independent.
	if !reflect.DeepEqual(plain["traditional"], doc["traditional"]) {
		t.Errorf("activity changed the simulated traditional report:\n%v\nvs\n%v",
			plain["traditional"], doc["traditional"])
	}
}

// TestVCDActivityJob extracts the activity profile from a VCD and checks
// the per-input toggle rates land in the result document.
func TestVCDActivityJob(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, QueueSize: 2})

	doc := waitSubmit(t, srv.URL, map[string]any{
		"bench":    s27Bench,
		"name":     "s27",
		"activity": map[string]any{"vcd": s27VCD},
	})
	act, ok := doc["activity"].(map[string]any)
	if !ok {
		t.Fatalf("result has no activity block: %v", doc)
	}
	if act["source"] != "vcd" {
		t.Errorf("activity.source = %v, want vcd", act["source"])
	}
	inputs, _ := act["inputs"].(map[string]any)
	// G0 toggles every step (4/4), G2 once (1/4); G1 is constant.
	if inputs["G0"] != 1.0 {
		t.Errorf("G0 activity = %v, want 1", inputs["G0"])
	}
	if inputs["G2"] != 0.25 {
		t.Errorf("G2 activity = %v, want 0.25", inputs["G2"])
	}
	if inputs["G1"] != 0.0 {
		t.Errorf("G1 activity = %v, want 0", inputs["G1"])
	}
}

// TestActivityCoalescingAndStoreKey checks that the activity hash splits
// both the coalescing key and the store key: identically annotated
// submits coalesce, differently annotated ones do not, and each
// annotation gets its own persistent entry.
func TestActivityCoalescingAndStoreKey(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{WireSchema: scanpower.ComparisonSchemaV1})
	if err != nil {
		t.Fatal(err)
	}
	svc, srv := newTestServer(t, Options{Workers: 1, QueueSize: 8, Store: st})

	withAct := map[string]any{
		"bench": s27Bench, "name": "s27",
		"activity": map[string]any{"inputs": map[string]any{"G0": 0.9}},
	}
	first := waitSubmit(t, srv.URL, withAct)

	// Identical resubmit: served from the coalescing map (the done job
	// stays keyed) — and the documents match.
	code, _, resp := postJob(t, srv.URL, map[string]any{
		"bench": s27Bench, "name": "s27",
		"activity": map[string]any{"inputs": map[string]any{"G0": 0.9}},
	})
	if code != http.StatusOK || resp["coalesced"] != true {
		t.Fatalf("identical annotated resubmit did not coalesce: %d %v", code, resp)
	}

	// Different activity: a different job and a different result.
	other := waitSubmit(t, srv.URL, map[string]any{
		"bench": s27Bench, "name": "s27",
		"activity": map[string]any{"inputs": map[string]any{"G0": 0.1}},
	})
	a1, _ := first["activity"].(map[string]any)
	a2, _ := other["activity"].(map[string]any)
	if reflect.DeepEqual(a1["inputs"], a2["inputs"]) {
		t.Fatalf("different activity profiles produced identical blocks: %v", a1)
	}

	// No activity at all: a third distinct entry.
	waitSubmit(t, srv.URL, map[string]any{"bench": s27Bench, "name": "s27"})

	if got := svc.store.Len(); got != 3 {
		t.Fatalf("store holds %d entries, want 3 (two annotated + one plain)", got)
	}
}

// TestLegacySubmitBytesUnchanged pins the byte-level response of a legacy
// flat submit: the union and activity machinery must be invisible to it.
func TestLegacySubmitBytesUnchanged(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, QueueSize: 2})

	raw := []byte(`{"bench":` + string(mustJSON(t, s27Bench)) + `,"name":"s27","wait":true}`)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["state"] != "done" {
		t.Fatalf("legacy submit settled in %v", body["state"])
	}
	u, _ := body["result_url"].(string)
	doc := fetchResult(t, srv.URL, u)
	for _, forbidden := range []string{"activity"} {
		if _, ok := doc[forbidden]; ok {
			t.Errorf("legacy result grew a %q key: %v", forbidden, doc)
		}
	}
	if doc["schema"] != scanpower.ComparisonSchemaV1 {
		t.Errorf("schema = %v, want %v", doc["schema"], scanpower.ComparisonSchemaV1)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
