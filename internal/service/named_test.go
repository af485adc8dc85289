package service

import (
	"net/http"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/netlist"
	"repro/internal/store"
)

// TestNamedSubmitFingerprintTable: every entry of the named-submit table
// keys and binds exactly like the circuit scanpower.Benchmark generates,
// and an unknown name gets Benchmark's own error.
func TestNamedSubmitFingerprintTable(t *testing.T) {
	names := scanpower.BenchmarkNames()
	if len(names) != 12 || len(namedKeys) != 12 {
		t.Fatalf("%d names, %d table entries; want 12 of each", len(names), len(namedKeys))
	}
	for _, name := range names {
		c, err := scanpower.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		k, err := lookupNamed(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k.name != c.Name || k.fp != c.Fingerprint() {
			t.Errorf("%s: table has %s/%x, Benchmark gives %s/%x", name, k.name, k.fp, c.Name, c.Fingerprint())
		}
		if want := piNames(c); !reflect.DeepEqual(k.inputs, want) {
			t.Errorf("%s: table inputs %v, want %v", name, k.inputs, want)
		}
	}
	_, want := scanpower.Benchmark("s9999")
	if _, err := lookupNamed("s9999"); err == nil || err.Error() != want.Error() {
		t.Errorf("unknown name: error %v, want %v", err, want)
	}
	if len(namedKeys) != 12 {
		t.Errorf("lookups grew the table to %d entries", len(namedKeys))
	}
}

// generations counts the built-in circuits generated through the
// generateBenchmark seam, and how many of them ran off a job worker.
type generations struct {
	mu        sync.Mutex
	n         int
	offWorker int
}

func (g *generations) counts() (n, offWorker int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n, g.offWorker
}

// fillNamedTable fills every entry of the named-submit table, so later
// submits generate only to run.
func fillNamedTable(t *testing.T) {
	t.Helper()
	for _, name := range scanpower.BenchmarkNames() {
		if _, err := lookupNamed(name); err != nil {
			t.Fatal(err)
		}
	}
}

// countGenerations fills the named-submit table, then wraps the generator
// in a counter for the rest of the test.
func countGenerations(t *testing.T) *generations {
	t.Helper()
	fillNamedTable(t)
	g := &generations{}
	orig := generateBenchmark
	generateBenchmark = func(name string) (*netlist.Circuit, error) {
		onWorker := strings.Contains(string(debug.Stack()), ".(*Service).worker(")
		g.mu.Lock()
		g.n++
		if !onWorker {
			g.offWorker++
		}
		g.mu.Unlock()
		return orig(name)
	}
	t.Cleanup(func() { generateBenchmark = orig })
	return g
}

// TestNamedSubmitGeneratesOnlyToRun: a named submit generates its circuit
// only to run it, on the worker. A store hit, 200 coalesced submits and a
// submit forwarded to its owner generate nothing on the node that
// answers them; each admitted job generates exactly once.
func TestNamedSubmitGeneratesOnlyToRun(t *testing.T) {
	gens := countGenerations(t)
	st, err := store.Open(t.TempDir(), store.Options{WireSchema: scanpower.ComparisonSchemaV1})
	if err != nil {
		t.Fatal(err)
	}
	expect := func(what string, want int) {
		t.Helper()
		if n, off := gens.counts(); n != want || off != 0 {
			t.Fatalf("after %s: %d generations (%d off a worker), want %d, all on a worker", what, n, off, want)
		}
	}

	var runs countingRunner
	_, srv := newTestServer(t, Options{Workers: 1, Store: st, Runner: runs.runner()})
	code, _, first := postJob(t, srv.URL, map[string]any{"circuit": "s344", "wait": true})
	if code != http.StatusOK || first["state"] != "done" {
		t.Fatalf("admitted submit: status %d (%v)", code, first)
	}
	expect("an admitted job", 1)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				code, _, body := postJob(t, srv.URL, map[string]any{"circuit": "s344"})
				if code != http.StatusOK || body["coalesced"] != true || body["id"] != first["id"] {
					t.Errorf("submit not coalesced onto %v: status %d (%v)", first["id"], code, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	expect("200 coalesced submits", 1)

	again, srv2 := newTestServer(t, Options{Workers: 1, Store: st, Runner: runs.runner()})
	code, _, body := postJob(t, srv2.URL, map[string]any{"circuit": "s344", "wait": true})
	if code != http.StatusOK || body["state"] != "done" || again.Stats().Store.Hits != 1 {
		t.Fatalf("store-hit submit: status %d, store hits %d (%v)", code, again.Stats().Store.Hits, body)
	}
	expect("a store hit", 1)

	// A two-node cluster: the submit lands on the node that does not own
	// the circuit, which forwards it without generating anything.
	lA, urlA := listenURL(t)
	lB, urlB := listenURL(t)
	newClusterNode(t, lA, Options{Workers: 1, Self: urlA, Peers: []string{urlB}, Runner: runs.runner()})
	newClusterNode(t, lB, Options{Workers: 1, Self: urlB, Peers: []string{urlA}, Runner: runs.runner()})
	k, _ := lookupNamed("s382")
	ingress, owner := urlA, urlB
	if newRing([]string{urlA, urlB}).owner(k.fp) == urlA {
		ingress, owner = urlB, urlA
	}
	code, _, body = postJob(t, ingress, map[string]any{"circuit": "s382", "wait": true})
	if code != http.StatusOK || body["state"] != "done" || body["node"] != owner {
		t.Fatalf("forwarded submit: status %d (%v), want done on %s", code, body, owner)
	}
	expect("a forwarded submit and its run on the owner", 2)
	if runs.count() != 2 {
		t.Errorf("%d jobs ran, want 2", runs.count())
	}
}

// TestNamedSubmitQueuedJobHoldsNoCircuit: a named job waiting for a
// worker carries no netlist; the worker generates it when the job runs.
func TestNamedSubmitQueuedJobHoldsNoCircuit(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	svc, srv := newTestServer(t, Options{Workers: 1, QueueSize: 1, Runner: blockingRunner(started, release)})
	if code, _, body := postJob(t, srv.URL, map[string]any{"circuit": "s382"}); code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, body)
	}
	if got := <-started; got != "s382" {
		t.Fatalf("worker ran %q, want the generated s382", got)
	}
	code, _, body := postJob(t, srv.URL, map[string]any{"circuit": "s444"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, body)
	}
	j, _ := svc.Job(body["id"].(string))
	svc.mu.Lock()
	state, circ := j.state, j.circ
	svc.mu.Unlock()
	if state != StateQueued || circ != nil {
		t.Fatalf("queued job: state %s, circuit %v; want queued with no circuit", state, circ)
	}
	close(release)
	pollState(t, srv.URL, j.ID, func(st string) bool { return st == "done" })
}

// TestNamedSubmitGenerationPanicFailsJob: a panic while the worker
// generates a named job's circuit fails that job alone and counts as a
// job panic.
func TestNamedSubmitGenerationPanicFailsJob(t *testing.T) {
	fillNamedTable(t)
	orig := generateBenchmark
	generateBenchmark = func(name string) (*netlist.Circuit, error) {
		if name == "s344" {
			panic("injected generation panic")
		}
		return orig(name)
	}
	t.Cleanup(func() { generateBenchmark = orig })
	var runs countingRunner
	svc, srv := newTestServer(t, Options{Workers: 1, Runner: runs.runner()})
	_, _, body := postJob(t, srv.URL, map[string]any{"circuit": "s344", "wait": true})
	if body["state"] != "failed" || body["error"] != "internal error: injected generation panic" {
		t.Fatalf("job whose generation panicked: %v", body)
	}
	if _, _, body = postJob(t, srv.URL, map[string]any{"circuit": "s382", "wait": true}); body["state"] != "done" {
		t.Fatalf("next job after the panic: %v", body)
	}
	if got := svc.reg.Counter(MetricJobPanics).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricJobPanics, got)
	}
	if runs.count() != 1 {
		t.Errorf("%d jobs reached the Runner, want 1", runs.count())
	}
}
