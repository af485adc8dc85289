package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/api"
)

// TestAPICompatPeerSegments replays trace_segments.json as a peer and
// requires the segment pull to decode it to the golden value.
func TestAPICompatPeerSegments(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "api", "testdata", "trace_segments.json"))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/traces/4bf92f3577b34da6a3ce929d0e0e4736" {
			http.NotFound(w, r)
			return
		}
		w.Write(raw)
	}))
	defer srv.Close()
	got, err := pullSegments(context.Background(), srv.URL, "4bf92f3577b34da6a3ce929d0e0e4736")
	if err != nil {
		t.Fatal(err)
	}
	var want api.TraceSegments
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Spans) != 2 || !reflect.DeepEqual(got, want.Segments) {
		t.Errorf("pulled segments = %+v\nwant %+v", got, want.Segments)
	}
}
