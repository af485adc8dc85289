package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one recorded interval: a call into a layer's public function,
// or a sub-phase a layer reported through its observer.
type span struct {
	ID     int            `json:"span_id"`
	Parent int            `json:"parent_id,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"` // since the run began
	Dur    int64          `json:"dur_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps a traced run's spans in memory; write emits them as JSON
// Lines when the run ends, so recording costs no I/O while measuring.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 = root) and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	return t.beginAt(parent, name, time.Now())
}

// beginAt opens a span that started at start.
func (t *tracer) beginAt(parent int, name string, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int, attrs map[string]any) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Dur = time.Since(t.t0).Nanoseconds() - s.Start
	s.Attrs = attrs
	return time.Duration(s.Dur)
}

// completed records a span that has just ended after lasting d.
func (t *tracer) completed(parent int, name string, d time.Duration, attrs map[string]any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds() - d.Nanoseconds(), Dur: d.Nanoseconds(), Attrs: attrs})
}

// write stores the spans as JSON Lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers accumulates one operation's per-layer values, keyed by metric
// name; medianOf folds the operations of a run into one value per metric.
type layers map[string]float64

func (l layers) addMS(name string, d time.Duration) { l[name] += ms(d) }

// medianOf returns, per metric, the median over the operations' values.
// An operation that never touched a metric counts as 0 for it.
func medianOf(ops []layers) map[string]float64 {
	keys := map[string]bool{}
	for _, l := range ops {
		for k := range l {
			keys[k] = true
		}
	}
	out := make(map[string]float64, len(keys))
	for k := range keys {
		vals := make([]float64, len(ops))
		for i, l := range ops {
			vals[i] = l[k]
		}
		out[k] = median(vals)
	}
	return out
}
