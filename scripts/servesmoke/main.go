// Command servesmoke is the `make serve-smoke` driver: it builds and
// boots a real scanpowerd on a random port and walks the service contract
// end to end through the typed repro/client package —
//
//   - healthz answers and the benchmark listing carries the structured
//     entries plus the legacy names array;
//   - an inline-c17 wait-mode job returns a scanpower/comparison/v1
//     result byte-identical to an in-process Engine run of the same
//     circuit and config;
//   - a raw legacy flat {"circuit":...} submit still works and its
//     result document carries no activity key — the pre-union bytes;
//   - a Verilog source with an explicit activity profile, and a second
//     one with a VCD-derived profile, return the activity-weighted
//     columns;
//   - with -workers 1 -queue 1, a slow running job (s5378) plus one
//     queued job make a third submit fail typed — client.ErrQueueFull
//     with the parsed Retry-After;
//   - Cancel settles the queued job as canceled;
//   - /metrics carries the service and packed-kernel families;
//   - SIGTERM while the slow job is still running drains cleanly: exit
//     code 0, a parseable manifest, and a balanced span trace;
//   - a second daemon booted on the same -store-dir re-serves the
//     annotated Verilog job byte-identically from the store, without
//     recomputing.
//
// It exits non-zero on the first violated expectation.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/api"
	"repro/client"
	"repro/internal/telemetry"
)

// c17 is the real ISCAS85 c17 netlist — tiny, combinational and already
// NAND-mapped, so the inline-bench path needs no Prepare step.
const c17 = `# c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

// s27Verilog is the s27 test circuit as structural Verilog — unlike c17
// it has scan cells, so it exercises the activity-weighted columns.
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

// s27VCD toggles G0 on every cycle and G2 once; G1 never changes.
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

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("serve-smoke: OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "servesmoke")
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

	tracePath := filepath.Join(tmp, "trace.jsonl")
	manifestPath := filepath.Join(tmp, "manifest.json")
	storeDir := filepath.Join(tmp, "store")
	daemon := exec.Command(bin,
		"-listen", "127.0.0.1:0",
		"-workers", "1",
		"-queue", "1",
		"-store-dir", storeDir,
		"-trace", tracePath,
		"-manifest", manifestPath,
	)
	stderr, err := daemon.StderrPipe()
	if err != nil {
		return err
	}
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("start scanpowerd: %w", err)
	}
	killed := false
	defer func() {
		if !killed {
			daemon.Process.Kill()
			daemon.Wait()
		}
	}()

	// The daemon announces its bound port on stderr as a structured
	// log line:
	//   time=... level=INFO msg=listening addr=http://127.0.0.1:PORT
	base, lines, err := awaitListening(stderr)
	if err != nil {
		return err
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained
	fmt.Println("serve-smoke: daemon at", base)

	cl, err := client.New([]string{base}, client.Options{PollInterval: 10 * time.Millisecond})
	if err != nil {
		return err
	}
	ctx := context.Background()

	if h, err := cl.Health(ctx, base); err != nil || h.Status != "ok" {
		return fmt.Errorf("healthz: %+v (%v)", h, err)
	}
	bms, err := cl.Benchmarks(ctx)
	if err != nil || len(bms) != 12 {
		return fmt.Errorf("benchmarks: %d entries (%v)", len(bms), err)
	}
	for _, b := range bms {
		if b.Name == "" || b.Gates <= 0 || b.ScanCells <= 0 || b.Chains != 1 {
			return fmt.Errorf("benchmark entry lacks structure stats: %+v", b)
		}
	}
	if err := checkC17BitIdentical(ctx, cl); err != nil {
		return err
	}
	if err := checkLegacyFlatSubmit(base); err != nil {
		return err
	}
	annotated, err := checkActivityJobs(ctx, cl)
	if err != nil {
		return err
	}
	slow, err := checkBackpressure(ctx, cl)
	if err != nil {
		return err
	}
	if err := checkMetrics(base); err != nil {
		return err
	}

	// SIGTERM while the slow job is still running: the drain must let it
	// finish and exit 0.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	killed = true
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("scanpowerd exited uncleanly after SIGTERM: %v (stderr: %s)", err, lines())
		}
	case <-time.After(60 * time.Second):
		daemon.Process.Kill()
		return fmt.Errorf("scanpowerd did not drain within 60s of SIGTERM")
	}
	fmt.Println("serve-smoke: clean SIGTERM drain (slow job", slow.ID, "in flight)")

	if err := checkTraceBalanced(tracePath); err != nil {
		return err
	}
	if err := checkManifest(manifestPath); err != nil {
		return err
	}
	return checkWarmRestart(bin, storeDir, annotated)
}

// checkWarmRestart boots a second daemon on the first one's store
// directory and requires the annotated Verilog job to come back as a
// store hit with byte-identical result bytes — no recompute.
func checkWarmRestart(bin, storeDir string, annotated []byte) error {
	daemon := exec.Command(bin,
		"-listen", "127.0.0.1:0",
		"-workers", "1",
		"-store-dir", storeDir,
	)
	stderr, err := daemon.StderrPipe()
	if err != nil {
		return err
	}
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("restart scanpowerd: %w", err)
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()
	base, _, err := awaitListening(stderr)
	if err != nil {
		return err
	}
	go io.Copy(io.Discard, stderr)

	cl, err := client.New([]string{base}, client.Options{PollInterval: 10 * time.Millisecond})
	if err != nil {
		return err
	}
	ctx := context.Background()
	raw, err := submitAnnotated(ctx, cl)
	if err != nil {
		return fmt.Errorf("annotated job after restart: %w", err)
	}
	if !bytes.Equal(bytes.TrimSpace(raw), bytes.TrimSpace(annotated)) {
		return fmt.Errorf("restarted daemon served different bytes for the annotated job:\nbefore: %s\nafter:  %s", annotated, raw)
	}
	cm, err := cl.ClusterMetrics(ctx)
	if err != nil {
		return err
	}
	if cm.Summary.StoreHits < 1 {
		return fmt.Errorf("annotated job after restart was recomputed (store hits %d)", cm.Summary.StoreHits)
	}
	fmt.Println("serve-smoke: warm restart re-served the annotated job from the store, bit-identical")
	return nil
}

// awaitListening scans the daemon's stderr for the listening line and
// returns the base URL plus an accessor for everything read so far.
func awaitListening(stderr io.Reader) (string, func() string, error) {
	var buf bytes.Buffer
	sc := bufio.NewScanner(io.TeeReader(stderr, &buf))
	deadline := time.After(30 * time.Second)
	found := make(chan string, 1)
	go func() {
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			var msg, addr string
			for _, f := range fields {
				if v, ok := strings.CutPrefix(f, "msg="); ok {
					msg = v
				}
				if v, ok := strings.CutPrefix(f, "addr="); ok {
					addr = v
				}
			}
			if msg == "listening" && addr != "" {
				found <- addr
				return
			}
		}
		close(found)
	}()
	select {
	case url, ok := <-found:
		if !ok {
			return "", nil, fmt.Errorf("scanpowerd exited before listening (stderr: %s)", buf.String())
		}
		return url, func() string { return buf.String() }, nil
	case <-deadline:
		return "", nil, fmt.Errorf("scanpowerd never announced its port (stderr: %s)", buf.String())
	}
}

// checkC17BitIdentical runs c17 through the service and through an
// in-process Engine under the same config, and requires byte-identical
// scanpower/comparison/v1 documents.
func checkC17BitIdentical(ctx context.Context, cl *client.Client) error {
	job, err := cl.Submit(ctx, client.SubmitRequest{Bench: c17, Name: "c17", Wait: true})
	if err != nil {
		return fmt.Errorf("c17 wait job: %w", err)
	}
	if job.State != "done" {
		return fmt.Errorf("c17 wait job settled %s (%s)", job.State, job.Err)
	}
	_, got, err := cl.Result(ctx, job)
	if err != nil {
		return fmt.Errorf("c17 result: %w", err)
	}

	c, err := scanpower.ParseBench(c17, "c17")
	if err != nil {
		return err
	}
	cfg := scanpower.DefaultConfig()
	eng := scanpower.NewEngine(cfg)
	cmp, err := eng.CompareWith(ctx, c, cfg)
	if err != nil {
		return fmt.Errorf("in-process c17 run: %w", err)
	}
	want, err := json.Marshal(cmp)
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		return fmt.Errorf("c17 result differs from in-process Engine run:\nservice: %s\nengine:  %s", got, want)
	}
	fmt.Println("serve-smoke: c17 result bit-identical to in-process Engine run")
	return nil
}

// checkLegacyFlatSubmit posts a raw pre-union flat body and requires the
// old behavior byte for byte: the submit is accepted and the result
// document is a plain scanpower/comparison/v1 with no activity key.
func checkLegacyFlatSubmit(base string) error {
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"circuit":"s344","wait":true}`))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("legacy flat submit: %d %s", resp.StatusCode, body)
	}
	var job api.JobDoc
	if err := json.Unmarshal(body, &job); err != nil || job.State != "done" {
		return fmt.Errorf("legacy flat submit settled %q (%v): %s", job.State, err, body)
	}
	resp, err = http.Get(base + "/v1/jobs/" + job.ID + "/result")
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("legacy flat result: %d %s", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte(`"schema":"`+scanpower.ComparisonSchemaV1+`"`)) {
		return fmt.Errorf("legacy flat result lost its schema: %s", raw)
	}
	if bytes.Contains(raw, []byte(`"activity"`)) {
		return fmt.Errorf("legacy flat result grew an activity key: %s", raw)
	}
	fmt.Println("serve-smoke: legacy flat submit unchanged (no activity key)")
	return nil
}

// submitAnnotated runs the s27 Verilog source with an explicit activity
// profile through the union API and returns the raw result bytes.
func submitAnnotated(ctx context.Context, cl *client.Client) ([]byte, error) {
	job, err := cl.Submit(ctx, client.SubmitRequest{
		Source:   &api.Source{Verilog: s27Verilog},
		Activity: &api.Activity{Inputs: map[string]float64{"G0": 0.9}},
		Wait:     true,
	})
	if err != nil {
		return nil, err
	}
	if job.State != "done" {
		return nil, fmt.Errorf("annotated job settled %s (%s)", job.State, job.Err)
	}
	_, raw, err := cl.Result(ctx, job)
	return raw, err
}

// checkActivityJobs runs the two annotated submits — explicit profile
// and VCD-derived — and checks the activity-weighted columns appear.
// Returns the profile job's raw result bytes for the restart check.
func checkActivityJobs(ctx context.Context, cl *client.Client) ([]byte, error) {
	raw, err := submitAnnotated(ctx, cl)
	if err != nil {
		return nil, fmt.Errorf("annotated verilog job: %w", err)
	}
	var doc struct {
		Activity *struct {
			Source                   string  `json:"source"`
			WTMTotal                 int     `json:"wtm_total"`
			TraditionalWeightedPerHz float64 `json:"traditional_weighted_per_hz"`
		} `json:"activity"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	if doc.Activity == nil || doc.Activity.Source != "profile" ||
		doc.Activity.TraditionalWeightedPerHz <= 0 || doc.Activity.WTMTotal <= 0 {
		return nil, fmt.Errorf("annotated result lacks activity columns: %s", raw)
	}

	job, err := cl.Submit(ctx, client.SubmitRequest{
		Source:   &api.Source{Verilog: s27Verilog},
		Activity: &api.Activity{VCD: s27VCD},
		Wait:     true,
	})
	if err != nil {
		return nil, fmt.Errorf("vcd job: %w", err)
	}
	if job.State != "done" {
		return nil, fmt.Errorf("vcd job settled %s (%s)", job.State, job.Err)
	}
	cmp, _, err := cl.Result(ctx, job)
	if err != nil {
		return nil, err
	}
	if cmp.Activity == nil || cmp.Activity.Source != "vcd" || cmp.Activity.Inputs["G0"] != 1.0 {
		return nil, fmt.Errorf("vcd result activity block wrong: %+v", cmp.Activity)
	}
	fmt.Println("serve-smoke: activity-annotated verilog jobs carry weighted columns (profile + vcd)")
	return raw, nil
}

// checkBackpressure parks the single worker on s5378, fills the one
// queue slot, and requires the next submit to fail typed with
// ErrQueueFull + Retry-After. Returns the slow job (still running).
func checkBackpressure(ctx context.Context, cl *client.Client) (*client.Job, error) {
	slow, err := cl.Submit(ctx, client.SubmitRequest{Circuit: "s5378"})
	if err != nil {
		return nil, fmt.Errorf("slow submit: %w", err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := cl.Status(ctx, slow)
		if err != nil {
			return nil, err
		}
		if j.State == "running" {
			break
		}
		if j.State != "queued" {
			return nil, fmt.Errorf("slow job in unexpected state %s", j.State)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("slow job never started running")
		}
		time.Sleep(10 * time.Millisecond)
	}

	queued, err := cl.Submit(ctx, client.SubmitRequest{Circuit: "s1423"})
	if err != nil {
		return nil, fmt.Errorf("queued submit: %w", err)
	}

	_, err = cl.Submit(ctx, client.SubmitRequest{Circuit: "s641"})
	if !errors.Is(err, client.ErrQueueFull) {
		return nil, fmt.Errorf("overflow submit error = %v, want ErrQueueFull", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.RetryAfter <= 0 {
		return nil, fmt.Errorf("queue_full without Retry-After: %+v", apiErr)
	}
	fmt.Println("serve-smoke: full queue rejected typed with ErrQueueFull + Retry-After")

	// Free the queue slot again: cancel the queued job.
	canceled, err := cl.Cancel(ctx, queued)
	if err != nil {
		return nil, fmt.Errorf("cancel queued job: %w", err)
	}
	if canceled.State != "canceled" {
		return nil, fmt.Errorf("cancel queued job: state %s", canceled.State)
	}
	return slow, nil
}

func checkMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		"scanpower_service_jobs_total",
		"scanpower_service_queue_depth",
		"scanpower_service_request_seconds",
		"scanpower_power_packed_lanes_total",
	} {
		if !strings.Contains(string(body), family) {
			return fmt.Errorf("/metrics missing %s", family)
		}
	}
	return nil
}

// checkTraceBalanced requires every span started in the trace to have
// ended — the drain must not truncate the span tree.
func checkTraceBalanced(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var starts, ends int
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev telemetry.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("trace line unparseable: %v: %s", err, sc.Text())
		}
		switch ev.Ev {
		case "start":
			starts++
		case "end":
			ends++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if starts == 0 || starts != ends {
		return fmt.Errorf("trace spans unbalanced: %d starts, %d ends", starts, ends)
	}
	fmt.Printf("serve-smoke: trace balanced (%d spans)\n", starts)
	return nil
}

func checkManifest(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := telemetry.ReadManifest(f)
	if err != nil {
		return err
	}
	if m.Label != "scanpowerd" || len(m.Circuits) == 0 {
		return fmt.Errorf("manifest looks wrong: label %q, %d circuits", m.Label, len(m.Circuits))
	}
	return nil
}
