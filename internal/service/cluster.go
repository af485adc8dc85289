package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/api"
	"repro/internal/telemetry"
)

// ClusterSchemaV1 tags the GET /v1/cluster response document.
const ClusterSchemaV1 = "scanpower/cluster/v1"

// ForwardedHeader marks a submit that a peer already routed. The receiver
// always runs such a submit locally, so divergent ring views during a
// membership change can cost one extra hop but never a forwarding loop.
// The forwarded flag wins over any trace header: a request carrying both
// adopts the trace identity but never re-forwards.
const ForwardedHeader = "X-Scanpowerd-Forwarded"

// TraceHeader carries the distributed trace context across submits, as a
// traceparent-style value (see telemetry.TraceContext). A forwarding node
// stamps it so the receiver's job spans parent to the forwarder's span; a
// client may also set it to join server spans to its own trace.
const TraceHeader = "X-Scanpowerd-Trace"

const (
	// ringVnodes is the virtual-node count per member; enough that a
	// three-node ring splits the fingerprint space within a few percent
	// of evenly.
	ringVnodes = 64
	// downCooldown is how long a peer that failed a forward is skipped
	// before it is retried.
	downCooldown = 3 * time.Second
	// forwardBackoff seeds the between-replica backoff: the second
	// replica waits this long, the third twice that, and so on.
	forwardBackoff = 50 * time.Millisecond
	// probeTimeout bounds each peer health probe in /v1/cluster.
	probeTimeout = 2 * time.Second
)

// ringPoint is one virtual node's position on the hash circle.
type ringPoint struct {
	hash uint64
	node string
}

// ring is a consistent-hash ring over the cluster members. Each member
// contributes ringVnodes points; a fingerprint is owned by the first
// point at or after its hash, wrapping. Adding or removing one member
// moves only the keys adjacent to that member's points — the stability
// property the store depends on, since a key that changes owner goes
// cold on the new owner's disk.
type ring struct {
	points []ringPoint
	nodes  []string // distinct members, sorted
}

func newRing(members []string) *ring {
	seen := make(map[string]bool)
	var nodes []string
	for _, n := range members {
		if n != "" && !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	sort.Strings(nodes)
	r := &ring{nodes: nodes}
	for _, n := range nodes {
		for v := 0; v < ringVnodes; v++ {
			h := fnv.New64a()
			io.WriteString(h, n)
			io.WriteString(h, "#")
			io.WriteString(h, strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// mix64 is the splitmix64 finalizer. FNV-64a over the short, similar
// "member#vnode" strings mixes poorly, so without it one member of a
// two-node ring could own as little as 1% of the keys; finalizing each
// vnode hash spreads the points evenly over the circle.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashFingerprint re-mixes the structural fingerprint before the ring
// lookup so ring position does not inherit any bias in the fingerprint's
// own bit layout.
func hashFingerprint(fp uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], fp)
	h := fnv.New64a()
	h.Write(b[:])
	return h.Sum64()
}

// route returns the distinct members in ring order starting at fp's
// owner: route(fp)[0] owns the key, the rest are its failover successors.
func (r *ring) route(fp uint64) []string {
	if len(r.points) == 0 {
		return nil
	}
	target := hashFingerprint(fp)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= target })
	seen := make(map[string]bool, len(r.nodes))
	out := make([]string, 0, len(r.nodes))
	for k := 0; k < len(r.points) && len(out) < len(r.nodes); k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// owner returns the member that owns fp.
func (r *ring) owner(fp uint64) string {
	if rt := r.route(fp); len(rt) > 0 {
		return rt[0]
	}
	return ""
}

// cluster is the sharding and forwarding state of one member.
type cluster struct {
	self string
	ring *ring
	// hc carries forwarded submits. Deliberately no client timeout: a
	// wait-mode submit legitimately holds the connection for the job's
	// whole runtime, and the request context already propagates client
	// disconnects and deadlines.
	hc *http.Client

	mu        sync.Mutex
	downUntil map[string]time.Time

	forwarded *telemetry.Counter
	failovers *telemetry.Counter
}

func newCluster(self string, peers []string, reg *telemetry.Registry) *cluster {
	return &cluster{
		self:      self,
		ring:      newRing(append([]string{self}, peers...)),
		hc:        &http.Client{},
		downUntil: make(map[string]time.Time),
		forwarded: reg.Counter(MetricForwarded),
		failovers: reg.Counter(MetricForwardFailovers),
	}
}

// markDown records a failed forward so the peer is skipped until the
// cooldown lapses.
func (cl *cluster) markDown(node string) {
	cl.mu.Lock()
	cl.downUntil[node] = time.Now().Add(downCooldown)
	cl.mu.Unlock()
}

func (cl *cluster) isDown(node string) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return time.Now().Before(cl.downUntil[node])
}

// forward ships one submit body to node, tagged so the receiver runs it
// locally and stamped with the trace context the receiver's spans should
// parent to.
func (cl *cluster) forward(ctx context.Context, node string, body []byte, traceparent string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, "1")
	if traceparent != "" {
		req.Header.Set(TraceHeader, traceparent)
	}
	return cl.hc.Do(req)
}

// forwardSubmit routes a submit along the fingerprint's replica chain.
// It reports true when the response has been handled — relayed from the
// owning peer, or abandoned because the client disconnected — and false
// when this node should run the job locally: it is the live owner, or
// every replica ahead of it is down.
//
// Once a forward is attempted, this node contributes an "ingress" trace
// segment (with one "forward" child per attempt) to tc's trace — minting
// the trace ID here if the client supplied none — so the merged trace of
// a forwarded job shows the hop. Every exit path ends both spans, so a
// client disconnect mid-hop still leaves the segment balanced.
func (s *Service) forwardSubmit(w http.ResponseWriter, r *http.Request, fp uint64, req *submitRequest, tc *telemetry.TraceContext) bool {
	cl := s.cluster
	var body []byte
	var seg *telemetry.SpanBuilder
	var ingress *telemetry.BuildSpan
	ensureSpans := func() {
		if seg != nil {
			return
		}
		if tc.TraceID == "" {
			tc.TraceID = telemetry.NewTraceID()
		}
		seg = telemetry.NewSpanBuilder(tc.TraceID, s.node)
		ingress = seg.StartSpan(tc.SpanID, "ingress", map[string]any{
			"circuit": circuitLabel(req),
		})
		s.traces.Add(seg)
		s.traceSegments.Set(float64(s.traces.Len()))
	}
	finish := func(outcome string) {
		if ingress != nil && outcome == "local" {
			// Falling back to a local run after failed forward attempts:
			// parent the local job span under this ingress span so the
			// failovers show up on the path to the job.
			tc.SpanID = ingress.ID()
		}
		ingress.End(map[string]any{"outcome": outcome})
	}
	attempt := 0
	for _, node := range cl.ring.route(fp) {
		if node == cl.self {
			finish("local")
			return false
		}
		if cl.isDown(node) {
			continue
		}
		if body == nil {
			b, err := json.Marshal(req)
			if err != nil {
				finish("local")
				return false // degenerate; run locally
			}
			body = b
		}
		ensureSpans()
		if attempt > 0 {
			select {
			case <-time.After(forwardBackoff << (attempt - 1)):
			case <-r.Context().Done():
				finish("abandoned")
				return true // client gone; nothing left to write
			}
		}
		attempt++
		fwd := ingress.Start("forward", map[string]any{"peer": node})
		resp, err := cl.forward(r.Context(), node, body,
			telemetry.TraceContext{TraceID: tc.TraceID, SpanID: fwd.ID()}.Traceparent())
		if err != nil {
			fwd.End(map[string]any{"error": err.Error()})
			if r.Context().Err() != nil {
				finish("abandoned")
				return true
			}
			cl.markDown(node)
			cl.failovers.Inc()
			s.log.Warn("forward failed", "trace_id", tc.TraceID, "peer", node, "error", err)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Draining or not yet serving: the next replica (possibly this
			// node) takes the job instead of bouncing the client.
			resp.Body.Close()
			fwd.End(map[string]any{"status": resp.StatusCode})
			cl.markDown(node)
			cl.failovers.Inc()
			s.log.Warn("forward refused", "trace_id", tc.TraceID, "peer", node,
				"status", resp.StatusCode)
			continue
		}
		cl.forwarded.Inc()
		relayed := relayResponse(w, resp)
		jobID := relayedJobID(relayed)
		if jobID != "" {
			seg.SetJobID(jobID)
		}
		fwd.End(map[string]any{"status": resp.StatusCode, "job_id": jobID})
		finish("relayed")
		s.log.Info("job forwarded", "trace_id", tc.TraceID, "peer", node,
			"job_id", jobID, "status", resp.StatusCode)
		return true
	}
	finish("local")
	return false
}

// circuitLabel names the submit for span attributes: the built-in name
// (flat or union form), or the inline circuit's label.
func circuitLabel(req *submitRequest) string {
	kind, payload, name := req.Resolved()
	if kind == api.SourceCircuit {
		return payload
	}
	return name
}

// relayedJobID extracts the job ID from a relayed submit response body so
// the forwarding node's trace segment can be found by job as well as by
// trace. Non-job bodies (error envelopes) yield "".
func relayedJobID(body []byte) string {
	var jr api.JobDoc
	if err := json.Unmarshal(body, &jr); err != nil {
		return ""
	}
	return jr.ID
}

// relayResponse copies a forwarded response — status, the headers the
// API contract uses, and the body — onto the client connection, returning
// the relayed body bytes.
func relayResponse(w http.ResponseWriter, resp *http.Response) []byte {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	var buf bytes.Buffer
	io.Copy(w, io.TeeReader(resp.Body, &buf))
	return buf.Bytes()
}

// probeClient health-checks peers for /v1/cluster; short timeout so one
// dead peer cannot stall the whole status page.
var probeClient = &http.Client{Timeout: probeTimeout}

// probePeer asks one peer for its healthz view.
func probePeer(ctx context.Context, node string) api.ClusterNode {
	out := api.ClusterNode{Node: node}
	var hz api.Health
	if err := getJSON(ctx, node+"/v1/healthz", &hz); err != nil {
		out.Error = err.Error()
		return out
	}
	out.Healthy = true
	out.Draining = hz.Status == "draining"
	out.QueueDepth = hz.QueueDepth
	out.Inflight = hz.Inflight
	out.Jobs = hz.Jobs
	return out
}

// getJSON decodes the JSON document at a peer's url into dst, bounded by
// probeTimeout.
func getJSON(ctx context.Context, url string, dst any) error {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(dst)
}

// handleCluster serves GET /v1/cluster: this node's view of the
// membership (self plus concurrently health-probed peers) and its
// persistent store. Single-node deployments get a one-row membership.
func (s *Service) handleCluster(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	selfName := s.opts.Self
	if selfName == "" {
		selfName = "local"
	}
	resp := api.ClusterStatus{
		Schema: ClusterSchemaV1,
		Self:   s.opts.Self,
		Nodes: []api.ClusterNode{{
			Node:       selfName,
			Self:       true,
			Healthy:    true,
			Draining:   st.Draining,
			QueueDepth: st.QueueDepth,
			Inflight:   st.Inflight,
			Jobs:       st.Jobs,
		}},
		Store: s.storeStatus(st),
	}
	if s.cluster != nil {
		var peers []string
		for _, node := range s.cluster.ring.nodes {
			if node != s.cluster.self {
				peers = append(peers, node)
			}
		}
		rows := make([]api.ClusterNode, len(peers))
		var wg sync.WaitGroup
		for i, node := range peers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows[i] = probePeer(r.Context(), node)
			}()
		}
		wg.Wait()
		resp.Nodes = append(resp.Nodes, rows...)
	}
	writeJSON(w, http.StatusOK, resp)
}
