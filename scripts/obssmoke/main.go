// Command obssmoke is the `make obs-smoke` driver: it builds scanpowerd,
// boots a real 3-node cluster and proves the observability contract end
// to end —
//
//   - a wait-mode job submitted to a non-owning node is forwarded across
//     the ring, and `GET /v1/jobs/{id}/trace` (asked of the owner AND of
//     the forwarding node) returns one merged span tree: a single trace
//     ID, spans from >= 2 nodes, the ingress/forward hop on the entry
//     node and the job/queue/run ladder on the owner, with the job span
//     parented to the forward span;
//   - a client-minted traceparent is adopted verbatim, so the job joins
//     the caller's distributed trace instead of starting its own;
//   - `GET /v1/cluster/metrics` fuses the per-node registries: for the
//     submit-path series (which no metrics fetch perturbs) the fused
//     counters and every submit-histogram bucket equal the bit-exact
//     sums of the three `/v1/node/metrics` snapshots;
//   - finally every node drains cleanly on SIGTERM (exit 0).
//
// It exits non-zero on the first violated expectation.
package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/client"
	"repro/scripts/internal/daemon"
)

// probeBench is the s27 netlist every probe job instantiates; the bench
// name varies per submit so each job gets its own fingerprint (and ring
// owner) instead of coalescing.
const probeBench = `INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)

G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)

G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`

// Submit-path series: these only move when jobs run, never when metrics
// or traces are fetched, so their fused values must be the bit-exact sum
// of the per-node snapshots no matter how the reads interleave.
const (
	metricJobsSubmitted = "scanpower_service_jobs_submitted_total"
	metricJobsDone      = `scanpower_service_jobs_total{state="done"}`
	metricForwarded     = "scanpower_service_forwarded_total"
	metricSubmitSeconds = `scanpower_service_request_seconds{endpoint="submit"}`
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obssmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("obssmoke: OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "obssmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "scanpowerd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/scanpowerd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build scanpowerd: %w", err)
	}

	// ---- Boot a named 3-node cluster --------------------------------
	nodes, err := daemon.Cluster(bin, tmp, []string{"obs-a", "obs-b", "obs-c"})
	if err != nil {
		return err
	}
	defer func() {
		for _, n := range nodes {
			n.Kill()
		}
	}()
	fmt.Printf("obssmoke: 3-node cluster up: %s\n", nodes[0].Peers)

	ctx := context.Background()
	entry := nodes[0]
	byURL := map[string]*daemon.Node{}
	for _, n := range nodes {
		byURL[n.Self] = n
	}

	// The client talks only to the entry node; forwarding is the
	// cluster's job.
	cl, err := client.New([]string{entry.Self}, client.Options{PollInterval: 20 * time.Millisecond})
	if err != nil {
		return err
	}

	// Every node reports its identity on healthz.
	for _, n := range nodes {
		h, err := cl.Health(ctx, n.Self)
		if err != nil {
			return fmt.Errorf("healthz %s: %w", n.Self, err)
		}
		if h.Node != n.Name {
			return fmt.Errorf("healthz of %s reports node %q, want %q", n.Self, h.Node, n.Name)
		}
		if h.GoVersion == "" || h.Version == "" {
			return fmt.Errorf("healthz of %s missing build identity: %+v", n.Self, h)
		}
	}

	// ---- A forwarded job's trace spans >= 2 nodes -------------------
	// Submit distinctly named probes at the entry node until one is
	// owned elsewhere; the ring splits the space ~evenly, so this takes
	// a handful of tries at most.
	var fwd *client.Job
	submitted := 0
	for i := 0; i < 32 && fwd == nil; i++ {
		j, err := cl.Submit(ctx, client.SubmitRequest{
			Bench: probeBench, Name: fmt.Sprintf("obs-probe-%d", i), Wait: true,
		})
		if err != nil {
			return fmt.Errorf("submit probe %d: %w", i, err)
		}
		submitted++
		if j.State != "done" {
			return fmt.Errorf("probe %d settled %s (%s)", i, j.State, j.Err)
		}
		if j.Node != entry.Self {
			fwd = j
		}
	}
	if fwd == nil {
		return fmt.Errorf("no probe forwarded off the entry node in %d submits", submitted)
	}
	owner := byURL[fwd.Node]
	if owner == nil {
		return fmt.Errorf("forwarded job's owner %q is not a cluster member", fwd.Node)
	}
	fmt.Printf("obssmoke: job %s entered at %s, ran on %s (trace %s)\n",
		fwd.ID, entry.Name, owner.Name, fwd.TraceID)

	if len(fwd.TraceID) != 32 {
		return fmt.Errorf("job trace ID %q is not 32 hex chars", fwd.TraceID)
	}
	// The owner merges the cross-node tree...
	tr, err := cl.Trace(ctx, fwd)
	if err != nil {
		return fmt.Errorf("trace from owner: %w", err)
	}
	if err := checkForwardedTrace(tr, fwd, entry.Name, owner.Name); err != nil {
		return fmt.Errorf("trace from owner %s: %w", owner.Name, err)
	}
	// ...and so does the forwarding node, resolving the job through its
	// trace ring even though the job lives on the owner.
	trEntry, err := cl.Trace(ctx, &client.Job{ID: fwd.ID, Node: entry.Self})
	if err != nil {
		return fmt.Errorf("trace from entry node: %w", err)
	}
	if err := checkForwardedTrace(trEntry, fwd, entry.Name, owner.Name); err != nil {
		return fmt.Errorf("trace from entry node %s: %w", entry.Name, err)
	}
	fmt.Printf("obssmoke: merged trace OK from both ends — %d spans across %v\n",
		len(tr.Spans), tr.Nodes)

	// ---- A client-minted traceparent is adopted ---------------------
	clientTrace := strings.Repeat("ab", 16)
	j, err := cl.Submit(ctx, client.SubmitRequest{
		Bench: probeBench, Name: "obs-traceparent", Wait: true,
		TraceParent: "00-" + clientTrace + "-1111222233334444-01",
	})
	if err != nil {
		return fmt.Errorf("traceparent submit: %w", err)
	}
	submitted++
	if j.State != "done" {
		return fmt.Errorf("traceparent probe settled %s (%s)", j.State, j.Err)
	}
	if j.TraceID != clientTrace {
		return fmt.Errorf("client traceparent not adopted: job trace %q, want %q", j.TraceID, clientTrace)
	}
	fmt.Println("obssmoke: client traceparent adopted verbatim")

	// ---- Fused cluster metrics are bit-exact sums -------------------
	// Per-node snapshots first, then the fusion; only submit-path series
	// are compared, and no submits run between the reads.
	snaps := make([]*client.MetricsSnapshot, len(nodes))
	for i, n := range nodes {
		if snaps[i], err = cl.NodeMetricsSnapshot(ctx, n.Self); err != nil {
			return fmt.Errorf("node metrics %s: %w", n.Name, err)
		}
	}
	cm, err := cl.ClusterMetrics(ctx)
	if err != nil {
		return fmt.Errorf("cluster metrics: %w", err)
	}
	if cm.Schema != "scanpower/cluster-metrics/v1" {
		return fmt.Errorf("cluster metrics schema %q", cm.Schema)
	}
	if len(cm.Nodes) != 3 {
		return fmt.Errorf("cluster metrics has %d node rows, want 3", len(cm.Nodes))
	}
	for _, row := range cm.Nodes {
		if row.Error != "" {
			return fmt.Errorf("node row %s carries error %q", row.Node, row.Error)
		}
	}

	for _, series := range []string{metricJobsSubmitted, metricJobsDone, metricForwarded} {
		var sum int64
		for _, s := range snaps {
			sum += s.Counters[series]
		}
		if got := cm.Fused.Counters[series]; got != sum {
			return fmt.Errorf("fused %s = %d, per-node sum = %d", series, got, sum)
		}
	}
	var wantSubmitted int64
	for _, s := range snaps {
		wantSubmitted += s.Counters[metricJobsSubmitted]
	}
	if wantSubmitted != int64(submitted) {
		return fmt.Errorf("cluster counted %d submits, driver made %d", wantSubmitted, submitted)
	}
	if cm.Fused.Counters[metricForwarded] == 0 {
		return fmt.Errorf("no forwards counted despite a cross-node job")
	}
	if cm.Summary.Jobs["done"] != int64(submitted) {
		return fmt.Errorf("fused summary jobs done = %d, want %d", cm.Summary.Jobs["done"], submitted)
	}

	// The submit histogram fuses bucket-for-bucket.
	fusedHist, ok := cm.Fused.Histograms[metricSubmitSeconds]
	if !ok {
		return fmt.Errorf("fused snapshot has no %s histogram", metricSubmitSeconds)
	}
	var bucketSum []int64
	var countSum int64
	for i, s := range snaps {
		h, ok := s.Histograms[metricSubmitSeconds]
		if !ok {
			continue
		}
		if bucketSum == nil {
			bucketSum = make([]int64, len(h.Counts))
		}
		if len(h.Counts) != len(bucketSum) {
			return fmt.Errorf("node %s submit histogram has %d buckets, others %d",
				nodes[i].Name, len(h.Counts), len(bucketSum))
		}
		for b, c := range h.Counts {
			bucketSum[b] += c
		}
		countSum += h.Count
	}
	if fusedHist.Count != countSum {
		return fmt.Errorf("fused submit histogram count %d, per-node sum %d", fusedHist.Count, countSum)
	}
	for b := range bucketSum {
		if fusedHist.Counts[b] != bucketSum[b] {
			return fmt.Errorf("fused submit bucket %d = %d, per-node sum = %d",
				b, fusedHist.Counts[b], bucketSum[b])
		}
	}
	fmt.Printf("obssmoke: fused metrics OK — %d submits, %d forwards, submit histogram bit-exact over %d buckets\n",
		cm.Fused.Counters[metricJobsSubmitted], cm.Fused.Counters[metricForwarded], len(bucketSum))

	// ---- Graceful drain of the whole cluster ------------------------
	for _, n := range nodes {
		if err := n.StopGraceful(); err != nil {
			return fmt.Errorf("drain %s: %w", n.Name, err)
		}
	}
	fmt.Println("obssmoke: all nodes drained cleanly on SIGTERM")
	return nil
}

// checkForwardedTrace asserts the merged tree of a forwarded job: one
// trace ID, spans from both the entry and the owning node, the full
// ingress/forward + job/queue/run ladder, and the cross-node parent link.
func checkForwardedTrace(tr *client.Trace, j *client.Job, entryName, ownerName string) error {
	if tr.Schema != "scanpower/trace/v1" {
		return fmt.Errorf("schema %q", tr.Schema)
	}
	if tr.TraceID != j.TraceID {
		return fmt.Errorf("trace ID %q, job says %q", tr.TraceID, j.TraceID)
	}
	if len(tr.Nodes) < 2 {
		return fmt.Errorf("spans from %v, want >= 2 nodes", tr.Nodes)
	}
	nodesSeen := map[string]bool{}
	spansByName := map[string]client.Span{}
	for _, sp := range tr.Spans {
		nodesSeen[sp.Node] = true
		spansByName[sp.Name] = sp
		if sp.DurNS < 0 {
			return fmt.Errorf("span %s has negative duration %d", sp.Name, sp.DurNS)
		}
	}
	if !nodesSeen[entryName] || !nodesSeen[ownerName] {
		keys := make([]string, 0, len(nodesSeen))
		for k := range nodesSeen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return fmt.Errorf("spans tagged %v, want both %s and %s", keys, entryName, ownerName)
	}
	for _, name := range []string{"ingress", "forward", "job", "queue", "run"} {
		if _, ok := spansByName[name]; !ok {
			return fmt.Errorf("no %q span in %d-span tree", name, len(tr.Spans))
		}
	}
	if spansByName["ingress"].Node != entryName || spansByName["forward"].Node != entryName {
		return fmt.Errorf("ingress/forward spans not on the entry node")
	}
	if spansByName["job"].Node != ownerName {
		return fmt.Errorf("job span on %q, want owner %s", spansByName["job"].Node, ownerName)
	}
	// The owner's job span parents to the entry node's forward span: the
	// hop is one unbroken tree, not two trees sharing an ID.
	if spansByName["job"].Parent != spansByName["forward"].SpanID {
		return fmt.Errorf("job span parents to %q, forward span is %q",
			spansByName["job"].Parent, spansByName["forward"].SpanID)
	}
	return nil
}
