package api_test

// The api-compat gate (`make api-compat`): every v1 request/response body
// shape — legacy flat and source-union submits, activity blocks, the
// structured benchmarks response, error envelopes, and comparison/v1
// result documents with and without the activity extension — is pinned as
// a golden JSON fixture. Each fixture must (a) byte-match what the current
// marshaller emits for its Go value and (b) survive a decode→re-encode
// round trip unchanged, so an accidental field rename, type change or
// dropped field fails here before it ships as a wire break. Regenerate
// deliberately with `go test ./api/ -run TestAPICompat -update` after an
// intentional, versioned contract change.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/api"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden API fixtures")

func f64(v float64) *float64 { return &v }

// fixtureComparison builds a plausible, fully-populated comparison/v1
// document; withActivity adds the activity extension block.
func fixtureComparison(withActivity bool) *scanpower.Comparison {
	cmp := &scanpower.Comparison{
		Circuit: "s344",
		Stats: netlist.Stats{
			Name: "s344", PIs: 9, POs: 11, FFs: 15, Gates: 181, Nets: 205,
			Depth: 12, Fanout: 1.7, MaxFan: 9, MaxArit: 4,
			ByType: map[logic.GateType]int{logic.Nand: 120, logic.Nor: 40, logic.Not: 21},
		},
		Patterns:      27,
		FaultCoverage: 0.987,
		Traditional: power.Report{
			DynamicPerHz: 1.01e-7, PeakDynamicPerHz: 2.5e-7, StaticUW: 11.5,
			Cycles: 432, MeanTogglesPerCycle: 41.25, MeanLeakNA: 12784.0,
		},
		InputControl: power.Report{
			DynamicPerHz: 7.2e-8, PeakDynamicPerHz: 2.1e-7, StaticUW: 10.1,
			Cycles: 432, MeanTogglesPerCycle: 30.5, MeanLeakNA: 11222.0,
		},
		Proposed: power.Report{
			DynamicPerHz: 2.3e-8, PeakDynamicPerHz: 1.4e-7, StaticUW: 8.75,
			Cycles: 432, MeanTogglesPerCycle: 9.8, MeanLeakNA: 9720.0,
		},
	}
	if withActivity {
		cmp.Activity = &scanpower.ActivityResult{
			Source:                    "profile",
			DefaultInput:              0.2,
			Inputs:                    map[string]float64{"G0": 0.5, "G1": 0.1},
			WTMTotal:                  2961,
			WTMPerPattern:             109.7,
			TraditionalWeightedPerHz:  9.1e-8,
			InputControlWeightedPerHz: 6.6e-8,
			ProposedWeightedPerHz:     2.0e-8,
		}
	}
	return cmp
}

// compatCase is one golden fixture and the Go value (a pointer) it pins.
type compatCase struct {
	file string
	val  any
}

// responseCases pins the response documents the server encodes: jobs in
// three states, healthz with a store block and draining, cluster
// membership, fused cluster metrics, a merged trace, and a node's raw
// trace segments.
func responseCases() []compatCase {
	start := time.Date(2026, 3, 14, 15, 9, 26, 535897932, time.UTC)
	store := &api.StoreStatus{Dir: "/var/lib/scanpowerd", Entries: 12, Bytes: 48213,
		Hits: 7, Misses: 12, Puts: 12, Evictions: 1, Corrupt: 0}
	spans := []api.Span{
		{SpanID: "a1b2c3d4e5f60718", Parent: "00f067aa0ba902b7", Name: "ingress", Node: "beta",
			Start: start, DurNS: 41250000, Attrs: map[string]any{"circuit": "s344", "outcome": "relayed"}},
		{SpanID: "0718a1b2c3d4e5f6", Parent: "a1b2c3d4e5f60718", Name: "forward", Node: "beta",
			Start: start.Add(120 * time.Microsecond), DurNS: 40800000,
			Attrs: map[string]any{"peer": "http://10.0.0.1:8344", "status": 200, "job_id": "job-9f3a21c0-3"}},
	}
	return []compatCase{
		{"job_done.json", &api.JobDoc{
			ID: "job-9f3a21c0-3", Node: "http://10.0.0.1:8344",
			TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Circuit: "s344", Measure: "packed",
			State: "done", TimeoutMS: 60000,
			Created:   "2026-03-14T15:09:26.535897932Z",
			Started:   "2026-03-14T15:09:26.5361Z",
			Finished:  "2026-03-14T15:09:26.61Z",
			ResultURL: "/v1/jobs/job-9f3a21c0-3/result",
		}},
		{"job_failed.json", &api.JobDoc{
			ID: "job-4", TraceID: "0af7651916cd43dd8448eb211c80319c", Circuit: "inline",
			Measure: "packed", State: "failed", TimeoutMS: 250,
			Error:    "context deadline exceeded",
			Created:  "2026-03-14T15:09:26Z",
			Started:  "2026-03-14T15:09:26.001Z",
			Finished: "2026-03-14T15:09:26.251Z",
		}},
		{"job_coalesced.json", &api.JobDoc{
			ID: "job-9f3a21c0-3", Node: "http://10.0.0.1:8344",
			TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Circuit: "s344", Measure: "packed",
			State: "running", Coalesced: true,
			Created: "2026-03-14T15:09:26.535897932Z",
			Started: "2026-03-14T15:09:26.5361Z",
		}},
		{"healthz_ok.json", &api.Health{
			Status: "ok", Node: "alpha", UptimeSec: 3600.25, Version: "v1.4.0",
			GoVersion: "go1.22.5", Revision: "0f1e2d3",
			QueueDepth: 1, QueueCapacity: 64, Inflight: 2, Workers: 2, Jobs: 19,
			CacheHits: 5, CacheMisses: 14, Store: store,
		}},
		{"healthz_draining.json", &api.Health{
			Status: "draining", UptimeSec: 12.5, QueueCapacity: 64, Workers: 1, Jobs: 3,
		}},
		{"cluster.json", &api.ClusterStatus{
			Schema: "scanpower/cluster/v1", Self: "http://10.0.0.1:8344",
			Nodes: []api.ClusterNode{
				{Node: "http://10.0.0.1:8344", Self: true, Healthy: true, QueueDepth: 1, Inflight: 1, Jobs: 7},
				{Node: "http://10.0.0.2:8344", Healthy: true, Draining: true, Jobs: 2},
				{Node: "http://10.0.0.3:8344", Error: "dial tcp 10.0.0.3:8344: connect: connection refused"},
			},
			Store: store,
		}},
		{"cluster_metrics.json", &api.ClusterMetrics{
			Schema: "scanpower/cluster-metrics/v1", Self: "http://10.0.0.1:8344",
			Summary: api.MetricsSummary{
				QueueDepth: 1, Inflight: 2,
				Jobs:      map[string]int64{"done": 4, "failed": 1},
				StoreHits: 3, StoreMisses: 2, StoreHitRate: 0.6,
				Latency: map[string]api.LatencySummary{"submit": {Count: 5, P50: 0.055, P95: 0.9, P99: 0.98}},
			},
			Nodes: []api.NodeMetrics{
				{Node: "alpha", Self: true, Summary: &api.MetricsSummary{
					QueueDepth: 1, Inflight: 1,
					Jobs:      map[string]int64{"done": 2},
					StoreHits: 1, StoreMisses: 1, StoreHitRate: 0.5,
				}},
				{Node: "http://10.0.0.3:8344", Error: "context deadline exceeded"},
			},
			Fused: &api.MetricsSnapshot{
				Counters: map[string]int64{
					"scanpower_service_jobs_submitted_total":       5,
					`scanpower_service_jobs_total{state="done"}`:   4,
					`scanpower_service_jobs_total{state="failed"}`: 1,
					"scanpower_service_store_hits_total":           3,
					"scanpower_service_store_misses_total":         2,
				},
				Gauges: map[string]float64{
					"scanpower_service_inflight":    2,
					"scanpower_service_queue_depth": 1,
				},
				Histograms: map[string]api.HistogramSnapshot{
					`scanpower_service_request_seconds{endpoint="submit"}`: {
						Bounds: []float64{0.01, 0.1, 1},
						Counts: []int64{1, 3, 1, 0},
						Sum:    0.4375,
						Count:  5,
					},
				},
			},
		}},
		{"job_trace.json", &api.Trace{
			Schema: "scanpower/trace/v1", TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", JobID: "job-9f3a21c0-3",
			Nodes: []string{"alpha", "beta"},
			Spans: append(append([]api.Span(nil), spans...),
				api.Span{SpanID: "5e6f708192a3b4c5", Parent: "0718a1b2c3d4e5f6", Name: "job",
					Node: "alpha", Start: start.Add(2 * time.Millisecond), DurNS: 38000000,
					Attrs: map[string]any{"circuit": "s344", "state": "done"}}),
		}},
		{"trace_segments.json", &api.TraceSegments{
			TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Node: "beta",
			Segments: []telemetry.JobTrace{{
				TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", JobID: "job-9f3a21c0-3",
				Node: "beta", Spans: spans,
			}},
		}},
	}
}

func TestAPICompat(t *testing.T) {
	cases := []compatCase{
		{
			file: "submit_legacy_circuit.json",
			val:  &api.SubmitBody{Circuit: "s1423", Wait: true},
		},
		{
			file: "submit_legacy_bench.json",
			val: &api.SubmitBody{Bench: "INPUT(G0)\nOUTPUT(G1)\nG1 = NOT(G0)\n",
				Name: "tiny", Measure: "packed", TimeoutMS: 5000},
		},
		{
			file: "submit_union_circuit.json",
			val:  &api.SubmitBody{Source: &api.Source{Circuit: "s344"}, Wait: true},
		},
		{
			file: "submit_union_bench.json",
			val: &api.SubmitBody{Source: &api.Source{
				Bench: "INPUT(G0)\nOUTPUT(G1)\nG1 = NOT(G0)\n", Name: "tiny"}},
		},
		{
			file: "submit_union_verilog_activity.json",
			val: &api.SubmitBody{
				Source: &api.Source{
					Verilog: "module t (a, y);\n  input a;\n  output y;\n  not u1 (y, a);\nendmodule\n",
					Name:    "t",
				},
				Activity: &api.Activity{
					DefaultInput: f64(0.2),
					Inputs:       map[string]float64{"a": 0.5},
				},
				Measure: "packed",
				Wait:    true,
			},
		},
		{
			file: "submit_activity_vcd.json",
			val: &api.SubmitBody{
				Source: &api.Source{Circuit: "s344"},
				Activity: &api.Activity{
					VCD: "$var wire 1 ! G0 $end\n$enddefinitions $end\n#0\n0!\n#1\n1!\n",
				},
			},
		},
		{
			file: "benchmarks_response.json",
			val: &api.BenchmarksResponse{
				Benchmarks: []api.Benchmark{
					{Name: "s1423", Gates: 657, ScanCells: 74, Chains: 1},
					{Name: "s344", Gates: 160, ScanCells: 15, Chains: 1},
				},
				Names: []string{"s1423", "s344"},
			},
		},
		{
			file: "error_envelope.json",
			val: &api.Envelope{Error: api.EnvelopeBody{
				Code: "bad_source", Message: "exactly one of source.circuit, source.bench or source.verilog must be set",
			}},
		},
		{
			file: "comparison_v1.json",
			val:  fixtureComparison(false),
		},
		{
			file: "comparison_v1_activity.json",
			val:  fixtureComparison(true),
		},
	}
	cases = append(cases, responseCases()...)

	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			got, err := json.MarshalIndent(c.val, "", "  ")
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", c.file)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read fixture (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire bytes drifted from the frozen fixture %s:\n got: %s\nwant: %s",
					c.file, got, want)
			}

			// Decode → re-encode must reproduce the fixture exactly.
			dst := reflect.New(reflect.TypeOf(c.val).Elem()).Interface()
			if err := json.Unmarshal(want, dst); err != nil {
				t.Fatalf("decode fixture: %v", err)
			}
			again, err := json.MarshalIndent(dst, "", "  ")
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			again = append(again, '\n')
			if !bytes.Equal(again, want) {
				t.Errorf("round trip is lossy for %s:\n got: %s\nwant: %s", c.file, again, want)
			}
		})
	}
}
