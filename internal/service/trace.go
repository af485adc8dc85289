package service

import (
	"context"
	"net/http"
	"sort"
	"sync"

	"repro/api"
	"repro/internal/telemetry"
)

// TraceSchemaV1 tags the GET /v1/jobs/{id}/trace response document.
const TraceSchemaV1 = "scanpower/trace/v1"

// handleTraceSegments serves this node's retained segments of one trace,
// raw and unmerged. Peers answering a trace query pull this endpoint.
func (s *Service) handleTraceSegments(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	writeJSON(w, http.StatusOK, api.TraceSegments{
		TraceID:  id,
		Node:     s.node,
		Segments: s.traces.ByTrace(id),
	})
}

// handleJobTrace serves the merged cross-node span tree of a job's trace:
// the job is resolved to its trace ID locally, the peers' segments are
// pulled concurrently, and every span is merged into one tree sorted by
// start time. A node that only forwarded the job (its segment is the
// ingress span) resolves the job ID through its trace ring even though
// the job itself lives on the owning peer.
func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var traceID string
	if j, ok := s.Job(id); ok {
		traceID = s.Snapshot(j).TraceID
	} else if seg, ok := s.traces.ByJob(id); ok {
		traceID = seg.TraceID
	}
	if traceID == "" {
		writeError(w, http.StatusNotFound, "unknown_job", "no such job")
		return
	}

	segments := s.traces.ByTrace(traceID)
	segments = append(segments, s.pullPeerSegments(r.Context(), traceID)...)

	resp := api.Trace{Schema: TraceSchemaV1, TraceID: traceID, JobID: id}
	nodeSet := map[string]bool{}
	for _, seg := range segments {
		for _, sp := range seg.Spans {
			resp.Spans = append(resp.Spans, sp)
			if sp.Node != "" {
				nodeSet[sp.Node] = true
			}
		}
	}
	for n := range nodeSet {
		resp.Nodes = append(resp.Nodes, n)
	}
	sort.Strings(resp.Nodes)
	sort.Slice(resp.Spans, func(i, j int) bool {
		a, b := resp.Spans[i], resp.Spans[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.SpanID < b.SpanID
	})
	writeJSON(w, http.StatusOK, resp)
}

// pullPeerSegments fetches the peers' retained segments of traceID,
// concurrently and best-effort: an unreachable peer costs its counter
// bump and a log line, not the query.
func (s *Service) pullPeerSegments(ctx context.Context, traceID string) []telemetry.JobTrace {
	if s.cluster == nil {
		return nil
	}
	var peers []string
	for _, node := range s.cluster.ring.nodes {
		if node != s.cluster.self {
			peers = append(peers, node)
		}
	}
	results := make([][]telemetry.JobTrace, len(peers))
	var wg sync.WaitGroup
	for i, node := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			segs, err := pullSegments(ctx, node, traceID)
			s.reg.Counter(MetricTracePulls).Inc()
			if err != nil {
				s.reg.Counter(MetricTracePullErrors).Inc()
				s.log.Warn("trace pull failed", "trace_id", traceID, "peer", node, "error", err)
				return
			}
			results[i] = segs
		}()
	}
	wg.Wait()
	var out []telemetry.JobTrace
	for _, segs := range results {
		out = append(out, segs...)
	}
	return out
}

// pullSegments fetches one peer's segments of one trace.
func pullSegments(ctx context.Context, node, traceID string) ([]telemetry.JobTrace, error) {
	var doc api.TraceSegments
	if err := getJSON(ctx, node+"/v1/traces/"+traceID, &doc); err != nil {
		return nil, err
	}
	return doc.Segments, nil
}
