package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// ManifestSchema identifies the manifest JSON layout. Bump the suffix on
// breaking changes; consumers (bench-trajectory tooling, CI) key on it.
const ManifestSchema = "scanpower/run-manifest/v1"

// Manifest is the machine-readable record of one experiment run: the
// environment it ran in, what it was configured to do, how long every
// per-circuit stage took, the metric snapshot, and the rendered results.
// tableone -manifest and scanpowerd -manifest write it.
type Manifest struct {
	Schema    string    `json:"schema"`
	Label     string    `json:"label,omitempty"`
	CreatedAt time.Time `json:"created_at"`

	// Environment.
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Workers    int    `json:"workers,omitempty"`

	// Config is the run configuration, marshaled by the caller (kept raw
	// so the manifest schema does not chase config struct evolution).
	Config json.RawMessage `json:"config,omitempty"`

	// WallNS is the whole run's wall time in nanoseconds.
	WallNS int64 `json:"wall_ns"`

	// Circuits holds the per-circuit stage record, in completion order.
	Circuits []CircuitManifest `json:"circuits"`

	// Counters is the metric snapshot at the end of the run
	// (Registry.Snapshot form).
	Counters map[string]float64 `json:"counters,omitempty"`

	// Results is the run's result payload, marshaled by the caller —
	// since scanpower/comparison/v1, the {schema, comparisons:[...]}
	// container that scanpower.WriteComparisonsJSON emits, identical to
	// the scanpowerd service's result responses.
	Results json.RawMessage `json:"results,omitempty"`
}

// CircuitManifest records one circuit's trip through the pipeline.
type CircuitManifest struct {
	Name string `json:"name"`
	// Err is the per-circuit failure, empty on success.
	Err string `json:"err,omitempty"`
	// Stages lists the observed stages in completion order.
	Stages []StageManifest `json:"stages"`
}

// StageManifest is one stage's wall time and counters.
type StageManifest struct {
	Stage  string `json:"stage"`
	WallNS int64  `json:"wall_ns"`
	// Patterns is the test-set size after the stage.
	Patterns int `json:"patterns,omitempty"`
	// Backtracks is the PODEM search effort (ATPG stage only).
	Backtracks int `json:"backtracks,omitempty"`
	// CacheHit marks an ATPG stage served from the Engine's pattern cache.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// NewManifest returns a manifest stamped with the current environment.
func NewManifest(label string) *Manifest {
	return &Manifest{
		Schema:     ManifestSchema,
		Label:      label,
		CreatedAt:  time.Now().UTC(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// Write emits the manifest as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	if m.Schema == "" {
		m.Schema = ManifestSchema
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: marshal manifest: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile writes the manifest to path, creating or truncating it.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadManifest parses a manifest written by Write and checks its schema.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("telemetry: parse manifest: %w", err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("telemetry: unknown manifest schema %q", m.Schema)
	}
	return &m, nil
}
