package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/api"
	"repro/client"
	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/store"
	"repro/internal/techmap"
)

// coldCircuits are the mid-size circuits service-cold submits as inline
// .bench: big enough that Engine work dominates a job, small enough for
// hundreds of jobs per run.
var coldCircuits = []string{"s641", "s713", "s1196", "s1238", "s1423", "s1494"}

// probeRepeats is how many times a traced run repeats each direct ingest
// or store call it times.
const probeRepeats = 5

// rssJobs is the job count after which a service run reads the daemon's
// peak memory: 20 service-cold blocks, 10 service-hot blocks.
const rssJobs = 120

// coldSource is circuit name written as .bench, the body of its cold jobs.
func coldSource(name string) (string, error) {
	c, err := scanpower.Benchmark(name)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := bench.Write(&b, c); err != nil {
		return "", err
	}
	return b.String(), nil
}

// ingestBench is what scanpowerd does to an inline .bench source before
// the Engine sees it: parse, then map to the library unless it already
// is. It also returns how long each step took.
func ingestBench(src, name string) (c *netlist.Circuit, parse, mapping time.Duration, err error) {
	t0 := time.Now()
	c, err = scanpower.ParseBench(src, name)
	parse = time.Since(t0)
	if err == nil && !techmap.IsMapped(c, 4) {
		c, err = scanpower.Prepare(c)
	}
	return c, parse, time.Since(t0) - parse, err
}

// coldReference computes in process the result bytes scanpowerd returns
// for an inline job of src named "cold".
func coldReference(ctx context.Context, src string) ([]byte, error) {
	c, _, _, err := ingestBench(src, "cold")
	if err != nil {
		return nil, err
	}
	cmp, err := scanpower.NewEngine(scanpower.DefaultConfig()).Compare(ctx, c)
	if err != nil {
		return nil, err
	}
	return json.Marshal(cmp)
}

// daemon is one scanpowerd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:<port>
	logDone chan struct{} // closed when its stderr reaches EOF
}

// startDaemon execs scanpowerd on a free loopback port over storeDir and
// returns once /v1/healthz answers, with the time from exec to that
// answer. One worker keeps a second job waiting in the queue whenever two
// clients are busy, and leaves a core for the clients.
func startDaemon(ctx context.Context, bin, storeDir string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-workers", "1", "-queue", "16",
		"-store-dir", storeDir)
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start scanpowerd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain the log for the daemon's whole life so it never blocks on a
		// full pipe; the listening line carries the chosen port.
		defer close(d.logDone)
		sc := bufio.NewScanner(logs)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "msg=listening addr="); ok {
				select {
				case addr <- strings.Fields(a)[0]:
				default:
				}
			}
		}
		io.Copy(io.Discard, logs)
	}()
	select {
	case d.base = <-addr:
	case <-d.logDone:
		cmd.Wait()
		return nil, 0, errors.New("scanpowerd exited before listening")
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, errors.New("scanpowerd did not announce its address within 30s")
	}
	cl, err := client.New([]string{d.base}, client.Options{})
	if err == nil {
		var h *client.Health
		if h, err = cl.Health(ctx, d.base); err == nil && h.Status != "ok" {
			err = fmt.Errorf("status %q", h.Status)
		}
	}
	if err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("scanpowerd healthz: %w", err)
	}
	return d, time.Since(t0), nil
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.logDone
	d.cmd.Wait()
}

// stop drains the daemon with SIGTERM, as an operator would, and waits for
// it to exit, killing it after 30s. scanpowerd announces its address just
// before it installs its SIGTERM handler, so a daemon stopped right after
// starting may die of the signal instead of draining; with no job
// admitted yet that is a clean stop too.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.logDone:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.logDone
	}
	err := d.cmd.Wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return err
}

// storeStats reads the daemon's result-store counters from /v1/healthz.
func (d *daemon) storeStats(ctx context.Context, cl *client.Client) (client.StoreStatus, error) {
	h, err := cl.Health(ctx, d.base)
	if err != nil {
		return client.StoreStatus{}, err
	}
	if h.Store == nil {
		return client.StoreStatus{}, errors.New("healthz has no store block")
	}
	return *h.Store, nil
}

// svcJob is one job of a service workload's fixed sequence.
type svcJob struct {
	circuit string
	name    string // inline job name, replaced by "cold" before the digest check
	req     client.SubmitRequest
}

// jobResult is one job as its client saw it.
type jobResult struct {
	svcJob
	ok                         bool
	latency                    time.Duration
	coalesced                  bool
	created, started, finished time.Time
	cmp                        *scanpower.Comparison
	raw                        []byte
}

// service is one run of a service workload.
type service struct {
	e       env
	dir     string // scratch directory of this run
	hc      *http.Client
	clients int
	golden  map[string]string // circuit -> digest of its normalized result
	acc     *accuracyFile
	// The job sequence is a series of blocks, each submitting every one of
	// circuits once in the order next returns, so every block is the same
	// mix and a seed fixes the whole sequence. job makes a circuit's job.
	circuits []string
	next     func() []string
	job      func(circuit string) svcJob
	// ingest times, for one circuit, the ingest calls its job makes in the
	// daemon, keyed by per-layer metric name.
	ingest func(circuit string) (map[string]time.Duration, error)
	// attempted and failed count set-up jobs (the store fill of service-hot).
	attempted, failed int
}

// newService prepares the scratch directory and the client side. The
// clients never outnumber the host's CPUs, nor two.
func newService(e env, circuits []string, golden map[string]string, acc *accuracyFile) (*service, error) {
	if e.daemon == "" {
		return nil, errors.New("service workloads need -daemon (run.sh passes it)")
	}
	dir, err := os.MkdirTemp(e.work, "svc-")
	if err != nil {
		return nil, err
	}
	n := min(2, runtime.NumCPU())
	rng := rand.New(rand.NewSource(e.seed))
	next := func() []string {
		perm := append([]string(nil), circuits...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		return perm
	}
	return &service{e: e, dir: dir, clients: n, golden: golden, acc: acc, circuits: circuits, next: next,
		hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}}, nil
}

// startDaemon starts scanpowerd over this run's store directory.
func (s *service) startDaemon(ctx context.Context) (*daemon, time.Duration, error) {
	return startDaemon(ctx, s.e.daemon, filepath.Join(s.dir, "store"))
}

func (s *service) client(d *daemon) *client.Client {
	cl, _ := client.New([]string{d.base}, client.Options{HTTPClient: s.hc})
	return cl
}

// drive runs the job sequence from s.clients closed-loop clients until
// budget has elapsed, always finishing the block it is in, and returns the
// jobs' results and the elapsed time. done, when set, is called with the
// number of jobs finished so far after each one.
func (s *service) drive(ctx context.Context, d *daemon, budget time.Duration, tr *tracer, done func(n int)) ([]jobResult, time.Duration) {
	cl := s.client(d)
	var (
		mu      sync.Mutex
		issued  int
		block   []string
		stopped bool
		out     []jobResult
		wg      sync.WaitGroup
	)
	start := time.Now()
	claim := func() (svcJob, bool) {
		mu.Lock()
		defer mu.Unlock()
		k := issued % len(s.circuits)
		if k == 0 {
			if stopped || (issued > 0 && time.Since(start) >= budget) {
				stopped = true
				return svcJob{}, false
			}
			block = s.next()
		}
		issued++
		return s.job(block[k]), true
	}
	for w := 0; w < s.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := claim()
				if !ok {
					return
				}
				r := s.runJob(ctx, cl, j, tr)
				mu.Lock()
				out = append(out, r)
				if done != nil {
					done(len(out))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// runJob submits one job in wait mode, fetches its result and checks the
// result's digest.
func (s *service) runJob(ctx context.Context, cl *client.Client, j svcJob, tr *tracer) jobResult {
	r := jobResult{svcJob: j}
	id := 0
	if tr != nil {
		id = tr.begin(0, "job")
	}
	t0 := time.Now()
	job, err := cl.Submit(ctx, j.req)
	if err == nil {
		if job.State == "done" {
			r.cmp, r.raw, err = cl.Result(ctx, job)
		} else {
			err = fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Err)
		}
	}
	r.latency = time.Since(t0)
	if job != nil {
		r.coalesced, r.created, r.started, r.finished = job.Coalesced, job.Created, job.Started, job.Finished
	}
	if err == nil {
		r.raw = bytes.TrimSpace(r.raw)
		norm := r.raw
		if j.name != "" {
			norm = bytes.ReplaceAll(r.raw, []byte(`"`+j.name+`"`), []byte(`"cold"`))
		}
		if r.ok = digest(norm) == s.golden[j.circuit]; !r.ok {
			err = errors.New("result differs from its golden digest")
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "job %s (%s): %v\n", j.circuit, j.name, err)
	}
	if tr != nil {
		tr.end(id, map[string]any{"circuit": j.circuit, "ok": r.ok, "coalesced": r.coalesced})
	}
	return r
}

// run runs a prepared service workload: set-up (timed setupProbes times in
// an untraced run), then the measured job sequence.
func (s *service) run() (*outcome, error) {
	// Every request of the run ends well inside the run's own time limit.
	ctx, cancel := context.WithTimeout(context.Background(), s.e.budget+90*time.Second)
	defer cancel()

	probes := setupProbes
	if s.e.trace {
		probes = 1
	}
	var setups []float64
	var d *daemon
	for i := 0; i < probes; i++ {
		dd, took, err := s.startDaemon(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i == probes-1 {
			d = dd
		} else if err := dd.stop(); err != nil {
			return nil, fmt.Errorf("stop scanpowerd: %w", err)
		}
	}
	running := true
	defer func() {
		if running {
			d.kill()
		}
	}()
	pid := d.cmd.Process.Pid

	if !s.e.trace {
		cpu0, err := cpuOf(pid)
		if err != nil {
			return nil, err
		}
		// The daemon keeps every distinct circuit's patterns, so its memory
		// grows with the jobs it has run; reading the peak after a fixed job
		// count keeps the metric independent of throughput.
		var rss float64
		var rssErr error
		res, elapsed := s.drive(ctx, d, s.e.budget, nil, func(n int) {
			if n == rssJobs {
				rss, rssErr = peakRSSMiB(fmt.Sprint(pid))
			}
		})
		cpu1, err := cpuOf(pid)
		if err != nil {
			return nil, err
		}
		if len(res) < rssJobs {
			rss, rssErr = peakRSSMiB(fmt.Sprint(pid))
		}
		if rssErr != nil {
			return nil, rssErr
		}
		running = false
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("stop scanpowerd: %w", err)
		}
		lat, failed := latencies(res)
		return &outcome{attempted: s.attempted + len(res), failed: s.failed + failed, values: map[string]float64{
			"op_p50_ms":     median(lat),
			"op_tail_ms":    percentile(lat, tailLevel[s.e.name]),
			"ops_per_s":     float64(len(lat)) / elapsed.Seconds(),
			"cpu_ms_per_op": ms(cpu1-cpu0) / float64(len(res)),
			"peak_rss_mib":  rss,
			"setup_s":       median(setups),
		}}, nil
	}

	// Traced run: half the time untraced, half with a span per job, the
	// store counters read around both, then the ingest and store calls of
	// the traced jobs timed directly.
	cl := s.client(d)
	st0, err := d.storeStats(ctx, cl)
	if err != nil {
		return nil, err
	}
	half := s.e.budget / 2
	plain, _ := s.drive(ctx, d, half, nil, nil)
	tr := newTracer()
	traced, _ := s.drive(ctx, d, s.e.budget-half, tr, nil)
	st1, err := d.storeStats(ctx, cl)
	if err != nil {
		return nil, err
	}
	running = false
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop scanpowerd: %w", err)
	}
	v, err := s.layerValues(traced)
	if err != nil {
		return nil, err
	}
	v["store.hits"] = float64(st1.Hits - st0.Hits)
	v["store.misses"] = float64(st1.Misses - st0.Misses)
	v["store.puts"] = float64(st1.Puts - st0.Puts)
	plainLat, plainFailed := latencies(plain)
	tracedLat, tracedFailed := latencies(traced)
	v["telemetry.trace_overhead_pct"] = (median(tracedLat)/median(plainLat) - 1) * 100
	if err := tr.write(s.e.spans); err != nil {
		return nil, err
	}
	return &outcome{attempted: s.attempted + len(plain) + len(traced),
		failed: s.failed + plainFailed + tracedFailed, values: v}, nil
}

// latencies returns the client latencies of the jobs that succeeded, in
// milliseconds, and how many did not.
func latencies(res []jobResult) ([]float64, int) {
	var lat []float64
	failed := 0
	for _, r := range res {
		if r.ok {
			lat = append(lat, ms(r.latency))
		} else {
			failed++
		}
	}
	return lat, failed
}

// layerValues derives the per-layer metrics of the traced jobs: the
// service's queue and run times from each job's timestamps, the time the
// client saw beyond them, and per job the median time of the direct ingest
// and store calls its circuit costs.
func (s *service) layerValues(jobs []jobResult) (map[string]float64, error) {
	var queue, run, overhead []float64
	coalesced := 0
	first := map[string]jobResult{}
	for _, r := range jobs {
		if !r.ok {
			continue
		}
		if !r.started.IsZero() {
			queue = append(queue, ms(r.started.Sub(r.created)))
			run = append(run, ms(r.finished.Sub(r.started)))
		}
		overhead = append(overhead, ms(r.latency-r.finished.Sub(r.created)))
		if r.coalesced {
			coalesced++
		}
		if _, ok := first[r.circuit]; !ok {
			first[r.circuit] = r
		}
	}
	v := map[string]float64{
		"service.queue_ms":       median(queue),
		"service.run_ms":         median(run),
		"service.overhead_ms":    median(overhead),
		"service.coalesced_frac": float64(coalesced) / float64(max(1, len(jobs))),
	}

	// Per circuit, the median of probeRepeats direct calls per metric.
	perCircuit := map[string]map[string]float64{}
	st, err := store.Open(filepath.Join(s.dir, "probe-store"), store.Options{WireSchema: scanpower.ComparisonSchemaV1})
	if err != nil {
		return nil, err
	}
	key := uint64(0)
	rows := map[string]*scanpower.Comparison{}
	for circuit, r := range first {
		rows[circuit] = r.cmp
		samples := map[string][]float64{}
		key++
		k := store.Key{Fingerprint: key, Measure: "packed"}
		for i := 0; i < probeRepeats; i++ {
			t0 := time.Now()
			if err := st.Put(k, store.Meta{Circuit: circuit}, r.raw); err != nil {
				return nil, err
			}
			samples["store.put_ms"] = append(samples["store.put_ms"], ms(time.Since(t0)))
			t0 = time.Now()
			if _, _, ok := st.Get(k); !ok {
				return nil, fmt.Errorf("store probe: %s missing after Put", circuit)
			}
			samples["store.get_ms"] = append(samples["store.get_ms"], ms(time.Since(t0)))
			times, err := s.ingest(circuit)
			if err != nil {
				return nil, err
			}
			for name, d := range times {
				samples[name] = append(samples[name], ms(d))
			}
		}
		perCircuit[circuit] = map[string]float64{}
		for name, xs := range samples {
			perCircuit[circuit][name] = median(xs)
		}
	}
	perJob := map[string][]float64{}
	for _, r := range jobs {
		for name, x := range perCircuit[r.circuit] {
			perJob[name] = append(perJob[name], x)
		}
	}
	for name, xs := range perJob {
		v[name] = median(xs)
	}
	addAccuracy(v, maeOf(rows, s.acc.Paper))
	return v, nil
}

func runServiceCold(e env) (*outcome, error) {
	g, acc, err := loadGolden()
	if err != nil {
		return nil, err
	}
	srcs := map[string]string{}
	for _, c := range coldCircuits {
		if srcs[c], err = coldSource(c); err != nil {
			return nil, err
		}
	}
	s, err := newService(e, coldCircuits, g.Cold, acc)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(s.dir)
	seq := 0
	s.job = func(c string) svcJob {
		// A unique name gives every job a unique fingerprint, so each one
		// is parsed, computed and stored afresh.
		seq++
		name := fmt.Sprintf("cold-%d-%d", e.seed, seq)
		return svcJob{circuit: c, name: name, req: client.SubmitRequest{
			Source: &api.Source{Bench: srcs[c], Name: name}, Wait: true}}
	}
	s.ingest = func(circuit string) (map[string]time.Duration, error) {
		_, parse, mapping, err := ingestBench(srcs[circuit], "cold")
		return map[string]time.Duration{"ingest.parse_ms": parse, "ingest.techmap_ms": mapping}, err
	}
	return s.run()
}

func runServiceHot(e env) (*outcome, error) {
	g, acc, err := loadGolden()
	if err != nil {
		return nil, err
	}
	s, err := newService(e, table1Circuits, g.Circuits, acc)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(s.dir)
	s.job = func(c string) svcJob {
		return svcJob{circuit: c, req: client.SubmitRequest{Source: &api.Source{Circuit: c}, Wait: true}}
	}
	s.ingest = func(circuit string) (map[string]time.Duration, error) {
		t0 := time.Now()
		_, err := scanpower.Benchmark(circuit)
		return map[string]time.Duration{"ingest.generate_ms": time.Since(t0)}, err
	}

	// Fill the store with all twelve results once, then measure restarted
	// daemons on it: every measured job is a store read or coalesces onto
	// one, and none reaches the Engine.
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	d, _, err := s.startDaemon(ctx)
	if err != nil {
		return nil, err
	}
	cl := s.client(d)
	for _, c := range table1Circuits {
		s.attempted++
		if r := s.runJob(ctx, cl, s.job(c), nil); !r.ok {
			s.failed++
		}
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop scanpowerd: %w", err)
	}
	return s.run()
}
