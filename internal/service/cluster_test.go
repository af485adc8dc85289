package service

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/netlist"
	"repro/internal/store"
	"repro/internal/techmap"
	"repro/internal/telemetry"
)

// benchCircuit resolves an inline bench exactly like the submit handler
// does, so its fingerprint matches the one the service shards on.
func benchCircuit(t *testing.T, name string) *netlist.Circuit {
	t.Helper()
	c, err := scanpower.ParseBench(s27Bench, name)
	if err != nil {
		t.Fatal(err)
	}
	if !techmap.IsMapped(c, 4) {
		if c, err = scanpower.Prepare(c); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestRingStability checks the consistent-hash property the store
// depends on: membership changes only move the keys adjacent to the
// changed member.
func TestRingStability(t *testing.T) {
	three := []string{"http://a:1", "http://b:1", "http://c:1"}
	r3 := newRing(three)
	r4 := newRing(append(three, "http://d:1"))

	const keys = 4096
	owners3 := make([]string, keys)
	counts := map[string]int{}
	for fp := 0; fp < keys; fp++ {
		owners3[fp] = r3.owner(uint64(fp))
		counts[owners3[fp]]++
	}
	// Rough balance: each of three members owns a meaningful share.
	for _, n := range three {
		if counts[n] < keys/10 {
			t.Errorf("member %s owns only %d/%d keys", n, counts[n], keys)
		}
	}

	// Adding a member moves keys only onto the new member, roughly its
	// fair share of the space.
	moved := 0
	for fp := 0; fp < keys; fp++ {
		o := r4.owner(uint64(fp))
		if o != owners3[fp] {
			moved++
			if o != "http://d:1" {
				t.Fatalf("key %d moved %s -> %s, not to the added member", fp, owners3[fp], o)
			}
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Errorf("adding one member to three moved %d/%d keys", moved, keys)
	}

	// Removing a member moves only that member's keys.
	r2 := newRing([]string{"http://a:1", "http://b:1"})
	for fp := 0; fp < keys; fp++ {
		o := r2.owner(uint64(fp))
		if owners3[fp] != "http://c:1" && o != owners3[fp] {
			t.Fatalf("key %d owned by %s moved to %s when c left", fp, owners3[fp], o)
		}
	}

	// Failover chains visit every member exactly once, owner first.
	rt := r3.route(12345)
	if len(rt) != 3 || rt[0] != r3.owner(12345) {
		t.Fatalf("route = %v, owner = %s", rt, r3.owner(12345))
	}
	seen := map[string]bool{}
	for _, n := range rt {
		if seen[n] {
			t.Fatalf("route %v repeats %s", rt, n)
		}
		seen[n] = true
	}
}

// TestRingBalance checks that the ring splits the key space fairly for
// the member URLs a local cluster actually has: over 100 seeded random
// sets of two and of three loopback members, every member owns between
// 0.6 and 1.4 times its fair share of 4096 random fingerprints (30–70%
// of the keys on a two-node ring).
func TestRingBalance(t *testing.T) {
	const keys = 4096
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3} {
		for trial := 0; trial < 100; trial++ {
			members := make([]string, n)
			for i := range members {
				members[i] = fmt.Sprintf("http://127.0.0.1:%d", 1024+rng.Intn(64512))
			}
			r := newRing(members)
			counts := map[string]int{}
			for k := 0; k < keys; k++ {
				counts[r.owner(rng.Uint64())]++
			}
			for _, m := range r.nodes {
				if share := float64(counts[m]*len(r.nodes)) / keys; share < 0.6 || share > 1.4 {
					t.Errorf("ring %v: %s owns %d/%d keys (%.2f× its fair share)",
						r.nodes, m, counts[m], keys, share)
				}
			}
		}
	}
}

// countingRunner records how many jobs this node actually executed.
type countingRunner struct {
	mu   sync.Mutex
	runs []string
}

func (cr *countingRunner) runner() Runner {
	return func(ctx context.Context, c *netlist.Circuit, cfg scanpower.Config) (*scanpower.Comparison, error) {
		cr.mu.Lock()
		cr.runs = append(cr.runs, c.Name)
		cr.mu.Unlock()
		return &scanpower.Comparison{Circuit: c.Name}, nil
	}
}

func (cr *countingRunner) count() int {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return len(cr.runs)
}

// newClusterNode boots a Service on a pre-bound listener so its Self URL
// was known before New ran.
func newClusterNode(t *testing.T, l net.Listener, opts Options) *Service {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	svc := New(opts)
	srv := httptest.NewUnstartedServer(svc.Handler())
	srv.Listener.Close()
	srv.Listener = l
	srv.Start()
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc
}

func listenURL(t *testing.T) (net.Listener, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l, "http://" + l.Addr().String()
}

// pickOwned returns an inline-bench name whose fingerprint the given
// member owns under the ring, so forwarding tests are deterministic.
func pickOwned(t *testing.T, r *ring, member string) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		name := fmt.Sprintf("shard-probe-%d", i)
		if r.owner(benchCircuit(t, name).Fingerprint()) == member {
			return name
		}
	}
	t.Fatalf("no probe circuit owned by %s", member)
	return ""
}

// TestClusterForwarding drives a two-node cluster: a submit landing on
// the wrong node is forwarded to its owner, executes there, and the
// response names the owner so the client can follow up.
func TestClusterForwarding(t *testing.T) {
	lA, urlA := listenURL(t)
	lB, urlB := listenURL(t)
	regA := telemetry.NewRegistry()
	var runsA, runsB countingRunner
	newClusterNode(t, lA, Options{
		Workers: 1, QueueSize: 8, Self: urlA, Peers: []string{urlB},
		Registry: regA, Runner: runsA.runner(),
	})
	newClusterNode(t, lB, Options{
		Workers: 1, QueueSize: 8, Self: urlB, Peers: []string{urlA},
		Runner: runsB.runner(),
	})

	r := newRing([]string{urlA, urlB})
	nameLocal := pickOwned(t, r, urlA)
	nameRemote := pickOwned(t, r, urlB)

	// Owned here: runs here, response names this node.
	code, _, body := postJob(t, urlA, map[string]any{
		"bench": s27Bench, "name": nameLocal, "wait": true,
	})
	if code != http.StatusOK || body["state"] != "done" {
		t.Fatalf("local submit: status %d (%v)", code, body)
	}
	if body["node"] != urlA {
		t.Errorf("local job node = %v, want %v", body["node"], urlA)
	}

	// Owned by the peer: forwarded, runs there, response names the peer.
	code, _, body = postJob(t, urlA, map[string]any{
		"bench": s27Bench, "name": nameRemote, "wait": true,
	})
	if code != http.StatusOK || body["state"] != "done" {
		t.Fatalf("forwarded submit: status %d (%v)", code, body)
	}
	if body["node"] != urlB {
		t.Errorf("forwarded job node = %v, want %v", body["node"], urlB)
	}
	if runsA.count() != 1 || runsB.count() != 1 {
		t.Errorf("runs: A=%d B=%d, want 1 and 1 (%v / %v)",
			runsA.count(), runsB.count(), runsA.runs, runsB.runs)
	}
	if got := regA.Counter(MetricForwarded).Value(); got != 1 {
		t.Errorf("forwarded counter = %d, want 1", got)
	}

	// The job is pollable on the node the response named.
	id, _ := body["id"].(string)
	jcode, _, jbody := fetchJSON(t, urlB+"/v1/jobs/"+id)
	if jcode != http.StatusOK || jbody["state"] != "done" {
		t.Errorf("poll on owner: status %d (%v)", jcode, jbody)
	}

	// /v1/cluster from A sees both members, the peer healthy.
	ccode, _, cbody := fetchJSON(t, urlA+"/v1/cluster")
	if ccode != http.StatusOK || cbody["schema"] != ClusterSchemaV1 || cbody["self"] != urlA {
		t.Fatalf("cluster status: %d (%v)", ccode, cbody)
	}
	nodes, _ := cbody["nodes"].([]any)
	if len(nodes) != 2 {
		t.Fatalf("cluster reports %d nodes, want 2: %v", len(nodes), nodes)
	}
	for _, n := range nodes {
		row := n.(map[string]any)
		if row["healthy"] != true {
			t.Errorf("node %v not healthy: %v", row["node"], row)
		}
	}
}

// TestClusterFailover checks a submit owned by a dead peer fails over:
// the next ring replica (this node) runs it instead of bouncing the
// client.
func TestClusterFailover(t *testing.T) {
	// A bound-then-closed listener gives a port that refuses connections.
	dead, deadURL := listenURL(t)
	dead.Close()

	lA, urlA := listenURL(t)
	regA := telemetry.NewRegistry()
	var runsA countingRunner
	newClusterNode(t, lA, Options{
		Workers: 1, QueueSize: 8, Self: urlA, Peers: []string{deadURL},
		Registry: regA, Runner: runsA.runner(),
	})

	r := newRing([]string{urlA, deadURL})
	nameDead := pickOwned(t, r, deadURL)

	code, _, body := postJob(t, urlA, map[string]any{
		"bench": s27Bench, "name": nameDead, "wait": true,
	})
	if code != http.StatusOK || body["state"] != "done" {
		t.Fatalf("failover submit: status %d (%v)", code, body)
	}
	if body["node"] != urlA {
		t.Errorf("failover job node = %v, want %v", body["node"], urlA)
	}
	if runsA.count() != 1 {
		t.Errorf("failover ran %d jobs locally, want 1", runsA.count())
	}
	if got := regA.Counter(MetricForwardFailovers).Value(); got < 1 {
		t.Errorf("failover counter = %d, want >= 1", got)
	}

	// The down-mark short-circuits the next submit for the same owner:
	// still served locally, still no client-visible error. A distinct
	// deadline makes it a new job rather than a coalesced repeat.
	code, _, body = postJob(t, urlA, map[string]any{
		"bench": s27Bench, "name": nameDead, "timeout_ms": 60000, "wait": true,
	})
	if code != http.StatusOK || body["state"] != "done" || body["coalesced"] == true {
		t.Fatalf("second failover submit: status %d (%v)", code, body)
	}
	if runsA.count() != 2 {
		t.Errorf("second failover ran %d jobs locally in total, want 2", runsA.count())
	}

	// /v1/cluster reports the peer unreachable.
	_, _, cbody := fetchJSON(t, urlA+"/v1/cluster")
	for _, n := range cbody["nodes"].([]any) {
		row := n.(map[string]any)
		if row["node"] == deadURL && row["healthy"] == true {
			t.Errorf("dead peer reported healthy: %v", row)
		}
	}
}

// TestServiceStoreWarmRestart is the service-level warm-start contract:
// a restarted daemon serves a previously computed job from disk with
// bit-identical result bytes and no recompute. Every backend name shares
// the one "-packed" entry, so a "fast" submit after the restart is served
// from what a default submit stored.
func TestServiceStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir, store.Options{WireSchema: scanpower.ComparisonSchemaV1})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	fetch := func(base, id string) []byte {
		resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result: status %d: %s", resp.StatusCode, raw)
		}
		return raw
	}

	// First life: compute for real and persist.
	reg1 := telemetry.NewRegistry()
	svc1 := New(Options{Workers: 1, QueueSize: 4, Store: open(), Registry: reg1})
	srv1 := httptest.NewServer(svc1.Handler())
	code, _, body := postJob(t, srv1.URL, map[string]any{
		"bench": s27Bench, "name": "warm-s27", "wait": true,
	})
	if code != http.StatusOK || body["state"] != "done" {
		t.Fatalf("first-life submit: status %d (%v)", code, body)
	}
	firstBytes := fetch(srv1.URL, body["id"].(string))
	srv1.Close()
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}
	if reg1.Counter(MetricStorePuts).Value() != 1 {
		t.Fatalf("store puts = %d, want 1", reg1.Counter(MetricStorePuts).Value())
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*-packed.json")); len(names) != 1 {
		t.Fatalf("store entries named *-packed.json: %v, want exactly one", names)
	}

	// Second life: same directory, fresh process state. The submit is
	// done before a worker could have touched it, served from disk.
	reg2 := telemetry.NewRegistry()
	var runs countingRunner
	svc2 := New(Options{Workers: 1, QueueSize: 4, Store: open(), Registry: reg2, Runner: runs.runner()})
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	defer svc2.Close()

	code, _, body = postJob(t, srv2.URL, map[string]any{
		"bench": s27Bench, "name": "warm-s27", "measure": "fast", "wait": true,
	})
	if code != http.StatusOK || body["state"] != "done" || body["measure"] != "packed" {
		t.Fatalf("warm submit: status %d (%v)", code, body)
	}
	secondBytes := fetch(srv2.URL, body["id"].(string))
	if string(firstBytes) != string(secondBytes) {
		t.Errorf("warm result differs from original:\n%s\nvs\n%s", firstBytes, secondBytes)
	}
	if runs.count() != 0 {
		t.Errorf("warm hit ran %d jobs, want 0", runs.count())
	}
	if reg2.Counter(MetricStoreHits).Value() != 1 {
		t.Errorf("store hits = %d, want 1", reg2.Counter(MetricStoreHits).Value())
	}

	// Engine saw no ATPG work in the second life.
	hits, misses := svc2.Engine().CacheStats()
	if hits != 0 || misses != 0 {
		t.Errorf("warm hit touched the Engine cache: hits=%d misses=%d", hits, misses)
	}

	// A repeat of the warm submit coalesces onto the done job.
	code, _, repeat := postJob(t, srv2.URL, map[string]any{
		"bench": s27Bench, "name": "warm-s27", "wait": true,
	})
	if code != http.StatusOK || repeat["coalesced"] != true || repeat["id"] != body["id"] {
		t.Errorf("repeat after warm hit: status %d (%v)", code, repeat)
	}

	// healthz carries the store block.
	_, _, hz := fetchJSON(t, srv2.URL+"/v1/healthz")
	st, _ := hz["store"].(map[string]any)
	if st == nil || st["entries"].(float64) != 1 || st["hits"].(float64) != 1 {
		t.Errorf("healthz store block = %v", hz["store"])
	}
}

// TestServiceStoreCorruptionRecomputes: a bit-flipped entry is evicted,
// not served — the service recomputes and re-persists.
func TestServiceStoreCorruptionRecomputes(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir, store.Options{WireSchema: scanpower.ComparisonSchemaV1})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	var runs countingRunner
	svc1 := New(Options{Workers: 1, QueueSize: 4, Store: open(), Runner: runs.runner()})
	srv1 := httptest.NewServer(svc1.Handler())
	code, _, body := postJob(t, srv1.URL, map[string]any{
		"bench": s27Bench, "name": "corrupt-s27", "wait": true,
	})
	if code != http.StatusOK || body["state"] != "done" {
		t.Fatalf("submit: status %d (%v)", code, body)
	}
	srv1.Close()
	svc1.Close()

	// Flip one byte inside the stored result payload.
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("store entries = %v (%v)", entries, err)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(raw), `"result"`)
	if i < 0 {
		t.Fatalf("no result field in %s", raw)
	}
	raw[i+20] ^= 0x01
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	svc2 := New(Options{Workers: 1, QueueSize: 4, Store: open(), Registry: reg, Runner: runs.runner()})
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	defer svc2.Close()

	code, _, body = postJob(t, srv2.URL, map[string]any{
		"bench": s27Bench, "name": "corrupt-s27", "wait": true,
	})
	if code != http.StatusOK || body["state"] != "done" {
		t.Fatalf("resubmit: status %d (%v)", code, body)
	}
	if runs.count() != 2 {
		t.Errorf("corrupted entry served without recompute: %d runs, want 2", runs.count())
	}
	if reg.Counter(MetricStoreHits).Value() != 0 {
		t.Errorf("corrupted entry counted as a store hit")
	}
}

// TestSingleNodeClusterEndpoint: without peers the endpoint still
// answers with a one-row membership.
func TestSingleNodeClusterEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1, QueueSize: 1})
	code, _, body := fetchJSON(t, srv.URL+"/v1/cluster")
	if code != http.StatusOK || body["schema"] != ClusterSchemaV1 {
		t.Fatalf("cluster: status %d (%v)", code, body)
	}
	nodes, _ := body["nodes"].([]any)
	if len(nodes) != 1 {
		t.Fatalf("single node reports %d members: %v", len(nodes), nodes)
	}
	row := nodes[0].(map[string]any)
	if row["self"] != true || row["healthy"] != true {
		t.Errorf("self row = %v", row)
	}
}
