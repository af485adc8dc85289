// Command scanpowerd serves the scan-power experiments as a long-running
// HTTP/JSON job service. Clients submit Table I experiments — a built-in
// ISCAS89 circuit name, inline .bench source or inline structural Verilog,
// with optional deadline overrides and a switching-activity annotation —
// and poll for scanpower/comparison/v1
// results; every job runs on one shared Engine, so repeated circuits hit
// the memoized ATPG cache.
//
// API (see internal/service and the repro/api wire package):
//
//	POST   /v1/jobs              {"source":{"circuit":"s344"}} or
//	                             {"source":{"bench":"...","name":"..."}} or
//	                             {"source":{"verilog":"...","name":"..."}},
//	                             optionally {"activity":{"inputs":{...},
//	                             "default_input":0.2}} or {"activity":
//	                             {"vcd":"..."}}, plus "timeout_ms",
//	                             "wait" and "measure" (validated, keys
//	                             nothing: every job reports "packed").
//	                             The legacy flat
//	                             {"circuit":...}/{"bench":...} body is
//	                             still accepted byte-compatibly.
//	GET    /v1/jobs/{id}         job status
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/jobs/{id}/result  result document
//	GET    /v1/benchmarks        built-in circuits with structure stats
//	GET    /v1/healthz           queue/store stats; 503 while draining
//	GET    /v1/cluster           membership, peer health and store status
//	GET    /metrics              Prometheus text (plus /debug/vars, /debug/pprof)
//
// The queue is bounded: submits beyond -queue waiting jobs are rejected
// with 429 and Retry-After. SIGTERM or SIGINT drains gracefully — new
// submits get 503 while queued and running jobs finish (up to
// -drain-timeout, then they are cancelled), so results and trace spans
// are never truncated.
//
// -store-dir enables the persistent result store: completed results are
// written to disk keyed by circuit fingerprint and activity-profile hash,
// and a restarted daemon serves previously
// computed jobs from disk — bit-identical bytes, no recompute.
//
// -peers (with -self) enables cluster mode: submits are sharded by
// circuit fingerprint across the members with consistent hashing, jobs
// owned elsewhere are forwarded, and a down peer fails over to the next
// ring replica.
//
// Usage:
//
//	scanpowerd [-listen 127.0.0.1:8344] [-workers N] [-queue N]
//	           [-job-timeout 0] [-max-job-timeout 10m] [-atpg-workers 1]
//	           [-store-dir DIR] [-store-max-bytes N]
//	           [-self URL] [-peers URL,URL]
//	           [-trace trace.jsonl] [-manifest run.json] [-drain-timeout 30s]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro"
	"repro/internal/cliflags"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	fs := flag.CommandLine
	listen := fs.String("listen", "127.0.0.1:8344", "address to serve the API on")
	workers := cliflags.Workers(fs, "workers", runtime.NumCPU(), "concurrent job executors")
	queue := fs.Int("queue", 16, "jobs allowed to wait beyond the running ones")
	jobTimeout := cliflags.Timeout(fs, "job-timeout", 0, "default per-job deadline for requests without timeout_ms (0 = none)")
	maxJobTimeout := cliflags.Timeout(fs, "max-job-timeout", 10*time.Minute, "cap on client-requested deadlines (0 = no cap)")
	atpgWorkers := cliflags.ATPGWorkers(fs)
	self := fs.String("self", "", "this node's externally reachable base URL (e.g. http://10.0.0.1:8344); required with -peers")
	node := fs.String("node", "", "this node's display name on trace spans and log lines (default -self, then \"local\")")
	cluster := cliflags.ClusterFlags(fs)
	tracePath := fs.String("trace", "", "write the span trace as JSON Lines to this file")
	manifestPath := fs.String("manifest", "", "write a run manifest JSON to this file on shutdown")
	drainTimeout := cliflags.Timeout(fs, "drain-timeout", 30*time.Second, "how long shutdown waits for live jobs before cancelling them")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	flag.Parse()

	if err := run(*listen, *workers, *queue, *atpgWorkers, *jobTimeout, *maxJobTimeout,
		*self, *node, cluster, *tracePath, *manifestPath, *drainTimeout,
		*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "scanpowerd:", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon's structured logger: text lines on stderr,
// each carrying the node name (added by the service) and, where a job is
// involved, trace_id and job_id fields.
func newLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

func run(listen string, workers, queue, atpgWorkers int, jobTimeout, maxJobTimeout time.Duration,
	self, node string, cluster *cliflags.Cluster, tracePath, manifestPath string,
	drainTimeout time.Duration, logLevel string) error {

	logger, err := newLogger(logLevel)
	if err != nil {
		return err
	}
	atpgWorkers, err = cliflags.ValidateATPGWorkers(atpgWorkers)
	if err != nil {
		return err
	}
	peers := cluster.PeerList()
	self = cliflags.NormalizeEndpoint(self)
	if len(peers) > 0 && self == "" {
		return fmt.Errorf("cluster mode (-peers) needs -self, this node's own base URL")
	}

	reg := telemetry.NewRegistry()
	var tw *telemetry.TraceWriter
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		tw = telemetry.NewTraceWriter(f)
	}

	var st *store.Store
	if cluster.StoreDir != "" {
		st, err = store.Open(cluster.StoreDir, store.Options{
			MaxBytes:   cluster.StoreMaxBytes,
			WireSchema: scanpower.ComparisonSchemaV1,
		})
		if err != nil {
			return err
		}
		logger.Info("result store opened", "dir", cluster.StoreDir, "warm_entries", st.Len())
	}

	cfg := scanpower.DefaultConfig()
	cfg.ATPG.Workers = atpgWorkers
	svc := service.New(service.Options{
		Cfg:            cfg,
		Workers:        workers,
		QueueSize:      queue,
		DefaultTimeout: jobTimeout,
		MaxTimeout:     maxJobTimeout,
		Registry:       reg,
		Trace:          tw,
		Store:          st,
		Self:           self,
		Peers:          peers,
		Node:           node,
		Logger:         logger,
	})

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Info("listening", "addr", "http://"+ln.Addr().String())
	if len(peers) > 0 {
		logger.Info("cluster member", "self", self, "peers", peers)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case got := <-sig:
		logger.Info("draining", "signal", got.String())
	case err := <-serveErr:
		svc.Close()
		return err
	}

	// Drain the job queue first — the HTTP server stays up so clients can
	// keep polling and fetching results while live jobs finish; submits
	// are rejected with 503 the moment draining starts.
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	derr := svc.Drain(dctx)
	if derr != nil {
		logger.Warn("drain cut short", "error", derr)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
	}

	if manifestPath != "" {
		m := svc.Manifest("scanpowerd")
		m.Workers = workers
		if err := m.WriteFile(manifestPath); err != nil {
			return err
		}
	}
	logger.Info("drained, bye")
	return derr
}
