// Command loadgen drives mixed traffic at a scanpowerd daemon or
// cluster through the typed client and reports throughput and latency
// percentiles as a JSON document.
//
// The traffic mix models the service's real workload classes:
//
//   - hot repeats — a small fixed set of circuits submitted over and
//     over, exercising job coalescing, the Engine's ATPG memoization and
//     the persistent result store;
//   - cold inline benches — every submit a structurally fresh circuit
//     (unique name, so a unique fingerprint), forcing full ATPG and
//     measurement work and, in cluster mode, spreading across the shards;
//   - cancellations — async submits aborted immediately, exercising the
//     cancel path under load.
//
// Each worker runs submits back to back until -duration elapses; cold
// work is -cold-copies disjoint s27 instances per job, so one flag
// scales how much Engine work a cold submit costs.
//
// Usage:
//
//	loadgen -servers http://127.0.0.1:8344[,http://127.0.0.1:8345,...]
//	        [-duration 30s] [-concurrency 8] [-hot 0.4] [-cancel 0.05]
//	        [-cold-copies 4] [-timeout 1m]
//	        [-label run] [-out run.json]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/cliflags"
	"repro/internal/telemetry"
)

// s27Bench is the ISCAS89 s27 netlist, the unit cell of generated
// traffic. Small enough to keep submits snappy, real enough that every
// cold job runs genuine ATPG and power measurement.
const s27Bench = `INPUT(G0)
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

// benchSource returns copies disjoint s27 instances in one netlist, so
// a cold job costs roughly copies times one s27 experiment.
func benchSource(copies int) string {
	if copies < 1 {
		copies = 1
	}
	var sb strings.Builder
	for i := 0; i < copies; i++ {
		suffix := fmt.Sprintf("_c%d", i)
		for _, line := range strings.Split(s27Bench, "\n") {
			sb.WriteString(suffixSignals(line, suffix))
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// suffixSignals rewrites every G<digits> token in one bench line with
// the given suffix, keeping structure tokens intact.
func suffixSignals(line, suffix string) string {
	var sb strings.Builder
	for i := 0; i < len(line); {
		if line[i] == 'G' && i+1 < len(line) && line[i+1] >= '0' && line[i+1] <= '9' {
			j := i + 1
			for j < len(line) && line[j] >= '0' && line[j] <= '9' {
				j++
			}
			sb.WriteString(line[i:j])
			sb.WriteString(suffix)
			i = j
			continue
		}
		sb.WriteByte(line[i])
		i++
	}
	return sb.String()
}

// counters aggregates worker outcomes.
type counters struct {
	submitted int64
	done      int64
	coalesced int64
	canceled  int64
	failures  int64
	rejected  int64 // queue_full / draining backpressure
}

// runDoc is the loadgen output document.
type runDoc struct {
	Schema         string   `json:"schema"`
	Label          string   `json:"label,omitempty"`
	Servers        []string `json:"servers"`
	DurationSec    float64  `json:"duration_sec"`
	Concurrency    int      `json:"concurrency"`
	HotFraction    float64  `json:"hot_fraction"`
	CancelFraction float64  `json:"cancel_fraction"`
	ColdCopies     int      `json:"cold_copies"`
	HotSet         int      `json:"hot_set"`

	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	Coalesced int64 `json:"coalesced"`
	Canceled  int64 `json:"canceled"`
	Failures  int64 `json:"failures"`
	Rejected  int64 `json:"rejected"`

	ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`
	LatencyMS            struct {
		P50  float64 `json:"p50"`
		P90  float64 `json:"p90"`
		P99  float64 `json:"p99"`
		Mean float64 `json:"mean"`
	} `json:"latency_ms"`

	// Cluster is the server-side fused metrics snapshot fetched after the
	// run — the authoritative cluster-wide view (queue/inflight occupancy,
	// jobs by state, store hit rate and per-endpoint latency percentiles
	// fused across every node), as opposed to the client-observed latency
	// above. Absent when the fetch fails.
	Cluster *client.ClusterMetrics `json:"cluster,omitempty"`
}

func main() {
	fs := flag.CommandLine
	servers := fs.String("servers", "", "comma-separated scanpowerd base URLs (required)")
	duration := cliflags.Timeout(fs, "duration", 30*time.Second, "how long to drive traffic")
	concurrency := cliflags.Workers(fs, "concurrency", 8, "concurrent submitters")
	hot := fs.Float64("hot", 0.4, "fraction of submits repeating the fixed hot set")
	cancelFrac := fs.Float64("cancel", 0.05, "fraction of submits canceled right after admission")
	coldCopies := fs.Int("cold-copies", 4, "s27 instances per cold circuit (scales per-job Engine work)")
	hotSet := fs.Int("hot-set", 4, "distinct circuits in the hot set")
	timeout := cliflags.Timeout(fs, "timeout", time.Minute, "per-job deadline sent with each submit")
	label := fs.String("label", "", "label recorded in the output document")
	out := fs.String("out", "", "write the JSON document to this file (default stdout)")
	seed := fs.Int64("seed", 1, "traffic-mix RNG seed")
	flag.Parse()

	if err := run(*servers, *duration, *concurrency, *hot, *cancelFrac,
		*coldCopies, *hotSet, *timeout, *label, *out, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(servers string, duration time.Duration, concurrency int, hot, cancelFrac float64,
	coldCopies, hotSet int, timeout time.Duration, label, out string, seed int64) error {

	if servers == "" {
		return errors.New("-servers is required")
	}
	var endpoints []string
	for _, s := range strings.Split(servers, ",") {
		if s = cliflags.NormalizeEndpoint(s); s != "" {
			endpoints = append(endpoints, s)
		}
	}
	cl, err := client.New(endpoints, client.Options{PollInterval: 10 * time.Millisecond})
	if err != nil {
		return err
	}

	cold := benchSource(coldCopies)
	reg := telemetry.NewRegistry()
	// Latency buckets from 1ms to ~4s; Quantile interpolates within.
	hist := reg.Histogram("loadgen_latency_seconds",
		[]float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 4})

	var (
		cnt      counters
		coldSeq  atomic.Int64
		wg       sync.WaitGroup
		deadline = time.Now().Add(duration)
	)
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(timeout))
	defer cancel()

	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for time.Now().Before(deadline) {
				req := client.SubmitRequest{
					Source:  &api.Source{Bench: cold},
					Timeout: timeout,
					Wait:    true,
				}
				doCancel := rng.Float64() < cancelFrac
				if !doCancel && rng.Float64() < hot {
					req.Source.Name = fmt.Sprintf("hot-%d", rng.Intn(hotSet))
				} else {
					req.Source.Name = fmt.Sprintf("cold-%d", coldSeq.Add(1))
				}

				atomic.AddInt64(&cnt.submitted, 1)
				t0 := time.Now()
				if doCancel {
					req.Wait = false
					job, err := cl.Submit(ctx, req)
					if err != nil {
						recordErr(&cnt, err)
						continue
					}
					if _, err := cl.Cancel(ctx, job); err != nil {
						recordErr(&cnt, err)
						continue
					}
					atomic.AddInt64(&cnt.canceled, 1)
					continue
				}

				job, err := cl.Submit(ctx, req)
				if err != nil {
					recordErr(&cnt, err)
					continue
				}
				if !job.Terminal() {
					if job, err = cl.Wait(ctx, job); err != nil {
						recordErr(&cnt, err)
						continue
					}
				}
				if job.State != "done" {
					atomic.AddInt64(&cnt.failures, 1)
					continue
				}
				if _, _, err := cl.Result(ctx, job); err != nil {
					recordErr(&cnt, err)
					continue
				}
				hist.Observe(time.Since(t0).Seconds())
				atomic.AddInt64(&cnt.done, 1)
				if job.Coalesced {
					atomic.AddInt64(&cnt.coalesced, 1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	doc := runDoc{
		Schema:         "scanpower/loadgen-run/v1",
		Label:          label,
		Servers:        endpoints,
		DurationSec:    elapsed.Seconds(),
		Concurrency:    concurrency,
		HotFraction:    hot,
		CancelFraction: cancelFrac,
		ColdCopies:     coldCopies,
		HotSet:         hotSet,
		Submitted:      atomic.LoadInt64(&cnt.submitted),
		Done:           atomic.LoadInt64(&cnt.done),
		Coalesced:      atomic.LoadInt64(&cnt.coalesced),
		Canceled:       atomic.LoadInt64(&cnt.canceled),
		Failures:       atomic.LoadInt64(&cnt.failures),
		Rejected:       atomic.LoadInt64(&cnt.rejected),
	}
	doc.ThroughputJobsPerSec = float64(doc.Done) / elapsed.Seconds()
	doc.LatencyMS.P50 = hist.Quantile(0.50) * 1000
	doc.LatencyMS.P90 = hist.Quantile(0.90) * 1000
	doc.LatencyMS.P99 = hist.Quantile(0.99) * 1000
	if n := hist.Count(); n > 0 {
		doc.LatencyMS.Mean = hist.Sum() / float64(n) * 1000
	}

	// Attach the server-side fused snapshot; a cluster that cannot answer
	// still gets the client-side document.
	mctx, mcancel := context.WithTimeout(context.Background(), 10*time.Second)
	if cm, err := cl.ClusterMetrics(mctx); err == nil {
		doc.Cluster = cm
	} else {
		fmt.Fprintf(os.Stderr, "loadgen: cluster metrics unavailable: %v\n", err)
	}
	mcancel()

	raw, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if out == "" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d done (%d coalesced, %d canceled, %d failures, %d rejected) in %.1fs -> %.1f jobs/s, p50 %.0fms p99 %.0fms\n",
		doc.Done, doc.Coalesced, doc.Canceled, doc.Failures, doc.Rejected,
		doc.DurationSec, doc.ThroughputJobsPerSec, doc.LatencyMS.P50, doc.LatencyMS.P99)
	return nil
}

// recordErr classifies a request error: backpressure rejections are
// expected under load and counted apart from real failures.
func recordErr(cnt *counters, err error) {
	if errors.Is(err, client.ErrQueueFull) || errors.Is(err, client.ErrDraining) {
		atomic.AddInt64(&cnt.rejected, 1)
		return
	}
	atomic.AddInt64(&cnt.failures, 1)
}
