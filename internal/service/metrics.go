package service

import (
	"context"
	"net/http"
	"strings"
	"sync"

	"repro/api"
)

// ClusterMetricsSchemaV1 tags the GET /v1/cluster/metrics response.
const ClusterMetricsSchemaV1 = "scanpower/cluster-metrics/v1"

// labelValue extracts the first label's value from a series name of the
// form family{label="value",...}; "" when the series has no labels.
func labelValue(series, family, label string) (string, bool) {
	prefix := family + "{" + label + `="`
	if !strings.HasPrefix(series, prefix) {
		return "", false
	}
	rest := series[len(prefix):]
	if i := strings.IndexByte(rest, '"'); i >= 0 {
		return rest[:i], true
	}
	return "", false
}

// summarize digests a registry snapshot into the summary block.
func summarize(snap *api.MetricsSnapshot) api.MetricsSummary {
	out := api.MetricsSummary{
		QueueDepth: snap.Gauges[MetricQueueDepth],
		Inflight:   snap.Gauges[MetricInflight],
	}
	for name, v := range snap.Counters {
		switch name {
		case MetricStoreHits:
			out.StoreHits = v
		case MetricStoreMisses:
			out.StoreMisses = v
		}
		if state, ok := labelValue(name, MetricJobsByState, "state"); ok {
			if out.Jobs == nil {
				out.Jobs = map[string]int64{}
			}
			out.Jobs[state] += v
		}
	}
	if total := out.StoreHits + out.StoreMisses; total > 0 {
		out.StoreHitRate = float64(out.StoreHits) / float64(total)
	}
	for name, hs := range snap.Histograms {
		endpoint, ok := labelValue(name, MetricRequestSeconds, "endpoint")
		if !ok || hs.Count == 0 {
			continue
		}
		if out.Latency == nil {
			out.Latency = map[string]api.LatencySummary{}
		}
		out.Latency[endpoint] = api.LatencySummary{
			Count: hs.Count,
			P50:   hs.Quantile(0.50),
			P95:   hs.Quantile(0.95),
			P99:   hs.Quantile(0.99),
		}
	}
	return out
}

// handleNodeMetrics serves this node's typed registry snapshot — the raw
// unit of cluster fusion, unlike /metrics which is Prometheus text.
func (s *Service) handleNodeMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Export())
}

// handleClusterMetrics serves the fused snapshot: this node's export
// merged with every live peer's, plus per-node summaries. A peer that
// cannot be pulled (or whose histogram layouts disagree) contributes an
// error row instead of failing the query.
func (s *Service) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	self := s.reg.Export()
	resp := api.ClusterMetrics{
		Schema: ClusterMetricsSchemaV1,
		Self:   s.opts.Self,
	}
	selfSummary := summarize(self)
	resp.Nodes = append(resp.Nodes, api.NodeMetrics{
		Node: s.node, Self: true, Summary: &selfSummary,
	})
	fused := self.Clone()

	if s.cluster != nil {
		var peers []string
		for _, node := range s.cluster.ring.nodes {
			if node != s.cluster.self {
				peers = append(peers, node)
			}
		}
		snaps := make([]*api.MetricsSnapshot, len(peers))
		errs := make([]error, len(peers))
		var wg sync.WaitGroup
		for i, node := range peers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				snaps[i], errs[i] = pullNodeMetrics(r.Context(), node)
			}()
		}
		wg.Wait()
		for i, node := range peers {
			row := api.NodeMetrics{Node: node}
			switch {
			case errs[i] != nil:
				row.Error = errs[i].Error()
				s.log.Warn("metrics pull failed", "peer", node, "error", errs[i])
			default:
				sum := summarize(snaps[i])
				row.Summary = &sum
				if err := fused.Merge(snaps[i]); err != nil {
					// Merge aborts on the first incompatible series; the
					// fusion may hold part of this peer, so flag the row.
					row.Error = err.Error()
					s.log.Warn("metrics fusion failed", "peer", node, "error", err)
				}
			}
			resp.Nodes = append(resp.Nodes, row)
		}
	}

	resp.Summary = summarize(fused)
	resp.Fused = fused
	writeJSON(w, http.StatusOK, resp)
}

// pullNodeMetrics fetches one peer's typed registry snapshot.
func pullNodeMetrics(ctx context.Context, node string) (*api.MetricsSnapshot, error) {
	var snap api.MetricsSnapshot
	if err := getJSON(ctx, node+"/v1/node/metrics", &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
