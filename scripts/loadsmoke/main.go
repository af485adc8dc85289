// Command loadsmoke is the `make loadsmoke` driver: it builds scanpowerd
// and loadgen, boots a real local cluster and proves the sharded-service
// contract end to end —
//
//   - phase A: a single node (-workers 1) takes cold-only traffic for a
//     baseline throughput T1;
//   - phase B: a 3-node cluster (-workers 1 each, consistent-hash
//     sharding, per-node result stores) takes the same cold traffic and
//     must clear the scaling bar (T3 >= 2 x T1 full profile, >= 1.5
//     short profile);
//   - phase C: mixed traffic (hot repeats, cold benches, cancellations)
//     runs while one node is SIGKILLed mid-run and restarted on the same
//     store directory; afterwards the restarted node must serve a job
//     computed in its first life bit-identically from disk — store hits
//     up, the ATPG-stage counter not incrementing;
//   - finally every node drains cleanly on SIGTERM (exit 0).
//
// With -out it writes the whole run as a scanpower/cluster-bench/v1
// JSON document; without -short it is the full-length run. -short
// shrinks the traffic windows for the tier-1 gate.
//
// It exits non-zero on the first violated expectation.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/client"
	"repro/scripts/internal/daemon"
)

// warmBench is the s27 netlist used for the phase-C warm-restart probe.
const warmBench = `INPUT(G0)
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

type profile struct {
	name        string
	coldDur     time.Duration
	mixedDur    time.Duration
	scaling     float64 // required T3/T1 on cold traffic
	concurrency int
	coldCopies  int // s27 instances per cold job (keeps compute >> HTTP)
}

var (
	fullProfile  = profile{"full", 10 * time.Second, 10 * time.Second, 2.0, 8, 48}
	shortProfile = profile{"short", 3 * time.Second, 3 * time.Second, 1.5, 8, 48}
)

// loadgenRun is the slice of the loadgen document loadsmoke reads back.
type loadgenRun struct {
	Throughput float64 `json:"throughput_jobs_per_sec"`
	Done       int64   `json:"done"`
	Coalesced  int64   `json:"coalesced"`
	Canceled   int64   `json:"canceled"`
	Failures   int64   `json:"failures"`
}

// benchDoc is the scanpower/cluster-bench/v1 output document.
type benchDoc struct {
	Schema    string `json:"schema"`
	Label     string `json:"label"`
	CreatedAt string `json:"created_at"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPU       string `json:"cpu,omitempty"`
	CPUs      int    `json:"cpus"`
	Profile   string `json:"profile"`
	Workload  struct {
		Nodes          int    `json:"nodes"`
		WorkersPerNode int    `json:"workers_per_node"`
		Concurrency    int    `json:"concurrency"`
		ColdCopies     int    `json:"cold_copies"`
		Command        string `json:"command"`
	} `json:"workload"`
	SingleNode   json.RawMessage `json:"single_node"`
	ClusterCold  json.RawMessage `json:"cluster_cold"`
	ClusterMixed json.RawMessage `json:"cluster_mixed"`
	WarmRestart  struct {
		Node           string `json:"node"`
		Circuit        string `json:"circuit"`
		BytesIdentical bool   `json:"bytes_identical"`
		StoreHits      int64  `json:"store_hits"`
		ATPGRecomputes int64  `json:"atpg_recomputes"`
	} `json:"warm_restart"`
	Acceptance struct {
		Criterion string  `json:"criterion"`
		ScalingX  float64 `json:"scaling_x"`
		Enforced  bool    `json:"enforced"`
		Met       bool    `json:"met"`
		Note      string  `json:"note,omitempty"`
	} `json:"acceptance"`
}

func main() {
	short := flag.Bool("short", false, "short traffic windows (the tier-1 gate profile)")
	out := flag.String("out", "", "write the scanpower/cluster-bench/v1 document to this file")
	flag.Parse()
	prof := fullProfile
	if *short {
		prof = shortProfile
	}
	if err := run(prof, *out); err != nil {
		fmt.Fprintln(os.Stderr, "loadsmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("loadsmoke: OK")
}

func run(prof profile, out string) error {
	tmp, err := os.MkdirTemp("", "loadsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	daemonBin := filepath.Join(tmp, "scanpowerd")
	loadgenBin := filepath.Join(tmp, "loadgen")
	for bin, pkg := range map[string]string{
		daemonBin:  "./cmd/scanpowerd",
		loadgenBin: "./cmd/loadgen",
	} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("build %s: %w", pkg, err)
		}
	}

	doc := benchDoc{
		Schema:    "scanpower/cluster-bench/v1",
		Label:     "scanpowerd-cluster",
		CreatedAt: time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPU:       cpuModel(),
		CPUs:      runtime.NumCPU(),
		Profile:   prof.name,
	}
	doc.Workload.Nodes = 3
	doc.Workload.WorkersPerNode = 1
	doc.Workload.Concurrency = prof.concurrency
	doc.Workload.ColdCopies = prof.coldCopies
	doc.Workload.Command = "go run ./scripts/loadsmoke" + map[bool]string{true: " -short"}[prof.name == "short"]

	// ---- Phase A: single-node cold baseline -------------------------
	single := &daemon.Node{Bin: daemonBin, Port: daemon.PickPort(), LogPath: filepath.Join(tmp, "single.log")}
	if err := single.Start(); err != nil {
		return err
	}
	fmt.Printf("loadsmoke: phase A — single node at %s, cold traffic %v\n", single.URL(), prof.coldDur)
	t1, t1raw, err := runLoadgen(loadgenBin, []string{single.URL()}, prof, "cold", filepath.Join(tmp, "t1.json"))
	if err != nil {
		return err
	}
	if t1.Done == 0 {
		return fmt.Errorf("phase A completed no jobs")
	}
	if err := single.StopGraceful(); err != nil {
		return fmt.Errorf("single node drain: %w", err)
	}
	doc.SingleNode = t1raw
	fmt.Printf("loadsmoke: phase A baseline %.1f jobs/s (%d done)\n", t1.Throughput, t1.Done)

	// ---- Phase B: 3-node cluster, same cold traffic -----------------
	nodes, err := daemon.Cluster(daemonBin, tmp, make([]string, 3))
	if err != nil {
		return err
	}
	defer func() {
		for _, n := range nodes {
			n.Kill()
		}
	}()
	selfs := make([]string, len(nodes))
	for i, n := range nodes {
		selfs[i] = n.Self
	}
	peers := nodes[0].Peers
	fmt.Printf("loadsmoke: phase B — 3-node cluster %v, cold traffic %v\n", selfs, prof.coldDur)
	t3, t3raw, err := runLoadgen(loadgenBin, selfs, prof, "cold", filepath.Join(tmp, "t3.json"))
	if err != nil {
		return err
	}
	doc.ClusterCold = t3raw
	ratio := t3.Throughput / t1.Throughput
	doc.Acceptance.ScalingX = ratio
	doc.Acceptance.Criterion = fmt.Sprintf("3-node cold throughput >= %.1fx single node (enforced on hosts with >= 3 CPUs)", prof.scaling)
	doc.Acceptance.Met = ratio >= prof.scaling
	fmt.Printf("loadsmoke: phase B cluster %.1f jobs/s (%d done) — %.2fx the single node\n",
		t3.Throughput, t3.Done, ratio)
	// Cold jobs are pure compute, so the scaling bar only means something
	// when the three local nodes have cores of their own. On smaller
	// hosts the phase still proves sharding + forwarding under load, and
	// a collapse (well below parity) still fails.
	if runtime.NumCPU() >= 3 {
		doc.Acceptance.Enforced = true
		if ratio < prof.scaling {
			return fmt.Errorf("cold scaling %.2fx below the %.1fx bar (T1 %.1f, T3 %.1f jobs/s)",
				ratio, prof.scaling, t1.Throughput, t3.Throughput)
		}
	} else {
		doc.Acceptance.Note = fmt.Sprintf("host has %d CPU(s); 3 co-located nodes share the core(s), so the scaling bar is recorded, not enforced", runtime.NumCPU())
		fmt.Println("loadsmoke:", doc.Acceptance.Note)
		if ratio < 0.5 {
			return fmt.Errorf("cluster throughput collapsed to %.2fx of a single node", ratio)
		}
	}

	// ---- Phase C: mixed traffic with a kill-and-restart -------------
	cl, err := client.New(selfs, client.Options{PollInterval: 20 * time.Millisecond})
	if err != nil {
		return err
	}
	ctx := context.Background()

	// Compute the warm probe in its owner's first life and keep the
	// canonical result bytes for the restart comparison.
	probe, err := cl.Submit(ctx, client.SubmitRequest{Bench: warmBench, Name: "warm-probe", Wait: true})
	if err != nil {
		return fmt.Errorf("warm probe submit: %w", err)
	}
	if probe.State != "done" {
		return fmt.Errorf("warm probe settled %s (%s)", probe.State, probe.Err)
	}
	_, firstBytes, err := cl.Result(ctx, probe)
	if err != nil {
		return fmt.Errorf("warm probe result: %w", err)
	}
	var victim *daemon.Node
	for _, n := range nodes {
		if n.Self == probe.Node {
			victim = n
		}
	}
	if victim == nil {
		return fmt.Errorf("warm probe owner %q is not a cluster member", probe.Node)
	}
	fmt.Printf("loadsmoke: phase C — mixed traffic %v, killing owner %s mid-run\n", prof.mixedDur, victim.Self)

	mixedOut := filepath.Join(tmp, "mixed.json")
	mixed := exec.Command(loadgenBin,
		"-servers", peers, "-duration", prof.mixedDur.String(),
		"-concurrency", strconv.Itoa(prof.concurrency),
		"-hot", "0.4", "-cancel", "0.1", "-cold-copies", "4",
		"-label", "mixed+failover", "-out", mixedOut)
	mixed.Stderr = os.Stderr
	if err := mixed.Start(); err != nil {
		return err
	}

	// A third in: SIGKILL the probe's owner. Restart it on the same
	// store directory once the dust settles.
	time.Sleep(prof.mixedDur / 3)
	victim.Kill()
	time.Sleep(500 * time.Millisecond)
	if err := victim.Start(); err != nil {
		return fmt.Errorf("restart killed node: %w", err)
	}
	fmt.Printf("loadsmoke: node %s restarted on its store\n", victim.Self)

	if err := mixed.Wait(); err != nil {
		return fmt.Errorf("mixed loadgen: %w", err)
	}
	mraw, err := os.ReadFile(mixedOut)
	if err != nil {
		return err
	}
	var m loadgenRun
	if err := json.Unmarshal(mraw, &m); err != nil {
		return err
	}
	doc.ClusterMixed = json.RawMessage(bytes.TrimSpace(mraw))
	if m.Done == 0 {
		return fmt.Errorf("mixed phase completed no jobs")
	}
	fmt.Printf("loadsmoke: mixed %.1f jobs/s (%d done, %d coalesced, %d canceled, %d failures during the kill window)\n",
		m.Throughput, m.Done, m.Coalesced, m.Canceled, m.Failures)

	// Warm-restart contract: the restarted owner serves the probe from
	// its store — identical bytes, store hit, no ATPG recompute.
	hits0, err := scrapeCounter(victim.URL(), "scanpower_service_store_hits_total")
	if err != nil {
		return err
	}
	miss0, err := scrapeCounter(victim.URL(), "scanpower_atpg_cache_misses_total")
	if err != nil {
		return err
	}
	ownerCl, err := client.New([]string{victim.Self}, client.Options{PollInterval: 20 * time.Millisecond})
	if err != nil {
		return err
	}
	again, err := ownerCl.Submit(ctx, client.SubmitRequest{Bench: warmBench, Name: "warm-probe", Wait: true})
	if err != nil {
		return fmt.Errorf("warm resubmit: %w", err)
	}
	if again.State != "done" {
		return fmt.Errorf("warm resubmit settled %s (%s)", again.State, again.Err)
	}
	_, secondBytes, err := ownerCl.Result(ctx, again)
	if err != nil {
		return err
	}
	if !bytes.Equal(firstBytes, secondBytes) {
		return fmt.Errorf("restarted node served different bytes for warm-probe:\nfirst:  %s\nsecond: %s", firstBytes, secondBytes)
	}
	hits1, err := scrapeCounter(victim.URL(), "scanpower_service_store_hits_total")
	if err != nil {
		return err
	}
	miss1, err := scrapeCounter(victim.URL(), "scanpower_atpg_cache_misses_total")
	if err != nil {
		return err
	}
	if hits1 <= hits0 {
		return fmt.Errorf("warm resubmit did not hit the store (hits %d -> %d)", hits0, hits1)
	}
	if miss1 != miss0 {
		return fmt.Errorf("warm resubmit recomputed: ATPG cache misses %d -> %d", miss0, miss1)
	}
	doc.WarmRestart.Node = victim.Self
	doc.WarmRestart.Circuit = "warm-probe"
	doc.WarmRestart.BytesIdentical = true
	doc.WarmRestart.StoreHits = hits1 - hits0
	doc.WarmRestart.ATPGRecomputes = miss1 - miss0
	fmt.Printf("loadsmoke: warm restart OK — bit-identical bytes from disk, store hits +%d, ATPG recomputes +%d\n",
		hits1-hits0, miss1-miss0)

	// ---- Graceful drain of the whole cluster ------------------------
	for _, n := range nodes {
		if err := n.StopGraceful(); err != nil {
			return fmt.Errorf("drain %s: %w", n.Self, err)
		}
	}
	fmt.Println("loadsmoke: all nodes drained cleanly on SIGTERM")

	if out != "" {
		raw, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("loadsmoke: wrote", out)
	}
	return nil
}

// runLoadgen drives one loadgen run and reads its document back.
func runLoadgen(bin string, servers []string, prof profile, mode, outPath string) (*loadgenRun, json.RawMessage, error) {
	args := []string{
		"-servers", strings.Join(servers, ","),
		"-duration", prof.coldDur.String(),
		"-concurrency", strconv.Itoa(prof.concurrency),
		"-out", outPath, "-label", mode,
	}
	if mode == "cold" {
		args = append(args, "-hot", "0", "-cancel", "0", "-cold-copies", strconv.Itoa(prof.coldCopies))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("loadgen %s: %w", mode, err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		return nil, nil, err
	}
	var r loadgenRun
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, nil, err
	}
	return &r, json.RawMessage(bytes.TrimSpace(raw)), nil
}

// scrapeCounter reads one unlabeled counter family off /metrics.
func scrapeCounter(base, family string) (int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == family {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", family, err)
			}
			return int64(v), nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/metrics has no %s", family)
}

// cpuModel reads the CPU model name, best effort.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}
