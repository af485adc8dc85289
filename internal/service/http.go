package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro"
	"repro/api"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/techmap"
	"repro/internal/telemetry"
	"repro/internal/verilog"
)

// maxBenchBytes bounds inline source payloads (.bench, Verilog, VCD); the
// largest ISCAS89 source is well under 1 MiB.
const maxBenchBytes = 8 << 20

// Handler returns the service's HTTP API mounted next to the telemetry
// endpoints (/metrics, /debug/vars, /debug/pprof):
//
//	POST   /v1/jobs            submit a job (source union: built-in name,
//	                           inline .bench or inline Verilog; optional
//	                           switching-activity block)
//	GET    /v1/jobs/{id}       job status
//	DELETE /v1/jobs/{id}       cancel a job
//	GET    /v1/jobs/{id}/result  scanpower/comparison/v1 result document
//	GET    /v1/jobs/{id}/trace   scanpower/trace/v1 merged cross-node span tree
//	GET    /v1/traces/{id}     this node's raw segments of one trace
//	GET    /v1/benchmarks      built-in Table I circuits (structured + names)
//	GET    /v1/healthz         queue/inflight/cache/store stats; 503 while draining
//	GET    /v1/cluster         membership, peer health and store status
//	GET    /v1/node/metrics    this node's typed registry snapshot
//	GET    /v1/cluster/metrics scanpower/cluster-metrics/v1 fused snapshot
//
// Errors are `{"error":{"code":..., "message":...}}` envelopes.
func (s *Service) Handler() http.Handler {
	mux := telemetry.NewMux(s.reg)
	mux.Handle("POST /v1/jobs", s.instrument("submit", s.handleSubmit))
	mux.Handle("GET /v1/jobs/{id}", s.instrument("job", s.handleJob))
	mux.Handle("DELETE /v1/jobs/{id}", s.instrument("cancel", s.handleCancel))
	mux.Handle("GET /v1/jobs/{id}/result", s.instrument("result", s.handleResult))
	mux.Handle("GET /v1/jobs/{id}/trace", s.instrument("trace", s.handleJobTrace))
	mux.Handle("GET /v1/traces/{id}", s.instrument("trace_segments", s.handleTraceSegments))
	mux.Handle("GET /v1/benchmarks", s.instrument("benchmarks", s.handleBenchmarks))
	mux.Handle("GET /v1/healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /v1/cluster", s.instrument("cluster", s.handleCluster))
	mux.Handle("GET /v1/node/metrics", s.instrument("node_metrics", s.handleNodeMetrics))
	mux.Handle("GET /v1/cluster/metrics", s.instrument("cluster_metrics", s.handleClusterMetrics))
	return mux
}

// statusWriter captures the response code for the per-endpoint counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-endpoint latency histogram and
// response counter.
func (s *Service) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	hist := s.reg.Histogram(fmt.Sprintf(MetricRequestSeconds+`{endpoint=%q}`, endpoint), nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		hist.Observe(time.Since(start).Seconds())
		s.reg.Counter(fmt.Sprintf(MetricResponses+`{endpoint=%q,code="%d"}`, endpoint, sw.code)).Inc()
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, api.Envelope{Error: api.EnvelopeBody{Code: code, Message: msg}})
}

// submitRequest is the POST /v1/jobs body: the shared wire type of
// repro/api, so the server decodes, validates (api.SubmitBody.Validate)
// and forwards exactly the contract the typed client speaks — the source
// union, the optional activity block, and the legacy flat fields.
type submitRequest = api.SubmitBody

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

func (s *Service) jobJSON(j *Job, coalesced bool) api.JobDoc {
	snap := s.Snapshot(j)
	resp := api.JobDoc{
		ID:        snap.ID,
		Node:      s.opts.Self,
		TraceID:   snap.TraceID,
		Circuit:   snap.Circuit,
		Measure:   measureName,
		State:     string(snap.State),
		Coalesced: coalesced,
		TimeoutMS: snap.Timeout.Milliseconds(),
		Created:   stamp(snap.Created),
		Started:   stamp(snap.Started),
		Finished:  stamp(snap.Finished),
	}
	if snap.Err != nil {
		resp.Error = snap.Err.Error()
	}
	if snap.State == StateDone {
		resp.ResultURL = "/v1/jobs/" + snap.ID + "/result"
	}
	return resp
}

// source is a resolved submit: the job key's fingerprint, the job's
// circuit name and the primary-input names an activity block binds to.
// circ is the library-mapped netlist of an inline source, and nil for a
// built-in name, whose circuit runJob generates on the worker.
type source struct {
	fp     uint64
	name   string
	inputs []string
	circ   *netlist.Circuit
}

// resolveSource turns a Validate-clean request into its source: built-in
// names from the named-submit table, inline .bench via ParseBench, inline
// Verilog via verilog.ParseString, each parsed netlist followed by Prepare
// when it is not already library-mapped.
func resolveSource(req *submitRequest) (source, *api.Error) {
	kind, payload, name := req.Resolved()
	if kind == api.SourceCircuit {
		k, err := lookupNamed(payload)
		if err != nil {
			return source{}, &api.Error{Status: http.StatusNotFound, Code: "unknown_benchmark", Message: err.Error()}
		}
		return source{fp: k.fp, name: k.name, inputs: k.inputs}, nil
	}
	parse, code := scanpower.ParseBench, "bad_bench"
	if kind == api.SourceVerilog {
		parse, code = verilog.ParseString, api.CodeBadVerilog
	}
	c, err := parse(payload, name)
	if err == nil && !techmap.IsMapped(c, 4) {
		c, err = scanpower.Prepare(c)
	}
	if err != nil {
		return source{}, &api.Error{Status: http.StatusUnprocessableEntity, Code: code, Message: err.Error()}
	}
	return source{fp: c.Fingerprint(), name: c.Name, inputs: piNames(c), circ: c}, nil
}

// piNames lists the names of c's primary inputs in declaration order.
func piNames(c *netlist.Circuit) []string {
	names := make([]string, len(c.PIs))
	for i, pi := range c.PIs {
		names[i] = c.Nets[pi].Name
	}
	return names
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	body := http.MaxBytesReader(w, r.Body, maxBenchBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid request body: "+err.Error())
		return
	}
	if verr := req.Validate(); verr != nil {
		writeError(w, verr.Status, verr.Code, verr.Message)
		return
	}
	src, serr := resolveSource(&req)
	if serr != nil {
		writeError(w, serr.Status, serr.Code, serr.Message)
		return
	}
	var prof *power.ActivityProfile
	if req.Activity != nil {
		var aerr *api.Error
		if prof, aerr = req.Activity.Profile(src.inputs); aerr != nil {
			writeError(w, aerr.Status, aerr.Code, aerr.Message)
			return
		}
	}

	// Adopt an incoming trace context if the header parses; otherwise a
	// fresh trace is minted at the first span. The forwarded flag always
	// wins over the trace header: a request carrying ForwardedHeader runs
	// locally even if the trace header is absent or malformed (the job
	// simply starts a fresh trace), so a disagreement between the two can
	// cost correlation but never a forwarding loop.
	tc, _ := telemetry.ParseTraceparent(r.Header.Get(TraceHeader))
	if s.cluster != nil && r.Header.Get(ForwardedHeader) == "" {
		if s.forwardSubmit(w, r, src.fp, &req, &tc) {
			return
		}
	}

	j, coalesced, err := s.submit(src.fp, src.name, src.circ, time.Duration(req.TimeoutMS)*time.Millisecond, prof, tc)
	if err != nil {
		var serr *SubmitError
		if errors.As(err, &serr) {
			switch serr.Code {
			case "queue_full":
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, serr.Code, serr.Error())
			default: // draining
				w.Header().Set("Retry-After", "5")
				writeError(w, http.StatusServiceUnavailable, serr.Code, serr.Error())
			}
			return
		}
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}

	if req.Wait {
		select {
		case <-s.Done(j):
		case <-r.Context().Done():
			if !coalesced {
				// The requester created this job and walked away; stop
				// burning the worker on it. Coalesced submits leave the
				// original requester's job alone.
				s.Cancel(j)
			}
			return // client is gone; the response is undeliverable
		}
		writeJSON(w, http.StatusOK, s.jobJSON(j, coalesced))
		return
	}

	status := http.StatusAccepted
	if coalesced {
		status = http.StatusOK
	}
	writeJSON(w, status, s.jobJSON(j, coalesced))
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_job", "no such job")
		return
	}
	writeJSON(w, http.StatusOK, s.jobJSON(j, false))
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_job", "no such job")
		return
	}
	s.Cancel(j)
	writeJSON(w, http.StatusOK, s.jobJSON(j, false))
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_job", "no such job")
		return
	}
	snap := s.Snapshot(j)
	switch snap.State {
	case StateQueued, StateRunning:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "not_ready",
			fmt.Sprintf("job is %s; retry later", snap.State))
	case StateCanceled:
		writeError(w, http.StatusGone, "canceled", "job was canceled")
	case StateFailed:
		if errors.Is(snap.Err, context.DeadlineExceeded) {
			writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", snap.Err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, "job_failed", snap.Err.Error())
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		// Serve the canonical bytes captured when the job settled (or
		// loaded from the store): re-marshalling here would work, but
		// keeping one byte string end to end is what makes a warm-start
		// response provably identical to the original.
		b := snap.Wire
		if b == nil {
			var err error
			if b, err = json.Marshal(snap.Result); err != nil {
				writeError(w, http.StatusInternalServerError, "internal", err.Error())
				return
			}
		}
		w.Write(append(b, '\n'))
	}
}

func (s *Service) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.BenchmarksResponse{
		Benchmarks: s.BenchmarkEntries(),
		Names:      s.Benchmarks(),
	})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	resp := api.Health{
		Status:        "ok",
		Node:          s.node,
		UptimeSec:     time.Since(s.started).Seconds(),
		Version:       s.build.Version,
		GoVersion:     s.build.GoVersion,
		Revision:      s.build.Revision,
		QueueDepth:    st.QueueDepth,
		QueueCapacity: st.QueueCapacity,
		Inflight:      st.Inflight,
		Workers:       st.Workers,
		Jobs:          st.Jobs,
		CacheHits:     st.CacheHits,
		CacheMisses:   st.CacheMisses,
		Store:         s.storeStatus(st),
	}
	status := http.StatusOK
	if st.Draining {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// storeStatus is the persistent store's block of the healthz and cluster
// documents; nil without a store.
func (s *Service) storeStatus(st Stats) *api.StoreStatus {
	if s.store == nil {
		return nil
	}
	return &api.StoreStatus{
		Dir:       s.store.Dir(),
		Entries:   st.Store.Entries,
		Bytes:     st.Store.Bytes,
		Hits:      st.Store.Hits,
		Misses:    st.Store.Misses,
		Puts:      st.Store.Puts,
		Evictions: st.Store.Evictions,
		Corrupt:   st.Store.Corrupt,
	}
}
