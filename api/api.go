// Package api freezes the v1 wire contract of the scanpowerd job API: the
// request and response body types shared by the server (internal/service)
// and the typed client (repro/client), plus the one submit-body validator
// both sides run, so a request the client accepts is a request the server
// accepts and vice versa.
//
// # Documents
//
// Every v1 body is declared here once; the server encodes these types
// and decodes its peers' answers into them, and the client decodes into
// them too (its Health, ClusterStatus, Trace, ... are aliases):
//
//	SubmitBody          POST /v1/jobs request (Source, Activity)
//	JobDoc              POST /v1/jobs, GET and DELETE /v1/jobs/{id}
//	Trace, Span         GET /v1/jobs/{id}/trace (scanpower/trace/v1)
//	TraceSegments       GET /v1/traces/{id}
//	BenchmarksResponse  GET /v1/benchmarks (Benchmark)
//	Health              GET /v1/healthz (StoreStatus)
//	ClusterStatus       GET /v1/cluster (ClusterNode, StoreStatus)
//	MetricsSnapshot     GET /v1/node/metrics (HistogramSnapshot)
//	ClusterMetrics      GET /v1/cluster/metrics (NodeMetrics,
//	                    MetricsSummary, LatencySummary, MetricsSnapshot)
//	Envelope            every non-2xx response (EnvelopeBody)
//
// Span, MetricsSnapshot and HistogramSnapshot alias the internal/telemetry
// types the server serialises. The scanpower/comparison/v1 result is
// scanpower.Comparison in the root package. Each document is pinned by a
// golden fixture under testdata (`make api-compat`).
//
// # Source union
//
// POST /v1/jobs selects the circuit through a discriminated union:
//
//	{"source": {"circuit": "s1423"}}             built-in Table I name
//	{"source": {"bench": "...", "name": "x"}}    inline .bench source
//	{"source": {"verilog": "...", "name": "x"}}  inline structural Verilog
//
// Exactly one of the three discriminants must be set. The legacy flat
// fields — {"circuit": ...} or {"bench": ..., "name": ...} — remain valid
// forever and must never be combined with "source"; their responses are
// byte-for-byte what they were before the union existed.
//
// # Activity
//
// An optional "activity" block annotates the job with switching activity,
// either as explicit per-input factors or as a VCD whose per-signal toggle
// rates are extracted server-side:
//
//	{"activity": {"default_input": 0.2, "inputs": {"G0": 0.5}}}
//	{"activity": {"vcd": "$var wire 1 ! G0 $end ..."}}
//
// Factors are transitions per cycle in [0, 1]. Unlisted inputs (and scan
// cells) take default_input, itself defaulting to DefaultInputActivity —
// the 0.2 of the industrial set_default_switching_activity convention.
// A job with an activity block gets an extra "activity" object in its
// scanpower/comparison/v1 result; jobs without one are byte-identical to
// pre-activity responses.
package api

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/power"
	"repro/internal/vcd"
)

// DefaultInputActivity is the switching activity assumed for inputs not
// covered by an explicit factor when the profile sets no default — the
// 0.2 transitions/cycle of the industrial default_switching_activity
// convention.
const DefaultInputActivity = 0.2

// DefaultName names inline circuits whose submit carries no name.
const DefaultName = "inline"

// Error-envelope codes emitted by submit validation. The envelope shape is
// {"error": {"code": ..., "message": ...}} (see Envelope).
const (
	// CodeBadRequest covers malformed legacy bodies: both or neither of
	// the flat circuit/bench fields, bad measure backends, negative
	// timeouts. 400.
	CodeBadRequest = "bad_request"
	// CodeBadSource covers malformed source unions: not exactly one
	// discriminant, mixing the union with the legacy flat fields, or a
	// name on a built-in source. 422.
	CodeBadSource = "bad_source"
	// CodeBadVerilog covers inline Verilog that does not parse or map. 422.
	CodeBadVerilog = "bad_verilog"
	// CodeBadActivity covers malformed activity blocks: factors out of
	// [0, 1], a VCD combined with explicit factors, an empty block, an
	// unparseable VCD, or inputs that match no circuit input. 422.
	CodeBadActivity = "bad_activity"
)

// Source is the discriminated circuit source of a v1 submit: exactly one
// of Circuit, Bench or Verilog must be set.
type Source struct {
	// Circuit names a built-in Table I benchmark.
	Circuit string `json:"circuit,omitempty"`
	// Bench is inline ISCAS89 .bench source.
	Bench string `json:"bench,omitempty"`
	// Verilog is inline primitive-only structural Verilog (the
	// internal/verilog subset); it is technology-mapped server-side.
	Verilog string `json:"verilog,omitempty"`
	// Name labels an inline Bench or Verilog circuit (default "inline";
	// a Verilog module statement's own name wins). Invalid with Circuit.
	Name string `json:"name,omitempty"`
}

// Activity is the optional switching-activity annotation of a v1 submit:
// either explicit per-input factors, or a VCD to extract them from —
// never both.
type Activity struct {
	// DefaultInput is the activity of inputs not listed in Inputs and of
	// scan cells; nil means DefaultInputActivity. Pointer so 0 and
	// "unset" are distinct on the wire.
	DefaultInput *float64 `json:"default_input,omitempty"`
	// Inputs maps primary-input names to activity factors in [0, 1].
	Inputs map[string]float64 `json:"inputs,omitempty"`
	// VCD is a Value Change Dump; each matching primary input's activity
	// becomes its toggle rate in the dump, absent inputs get 0.
	VCD string `json:"vcd,omitempty"`
}

// SubmitBody is the POST /v1/jobs request body: a circuit source (the
// Source union, or the legacy flat Circuit/Bench/Name trio), an optional
// Activity annotation, and the run overrides.
type SubmitBody struct {
	// Circuit, Bench and Name are the legacy flat source fields.
	//
	// Deprecated: use Source. The flat form stays valid forever (and its
	// responses byte-identical), but cannot be combined with Source.
	Circuit string `json:"circuit,omitempty"`
	Bench   string `json:"bench,omitempty"`
	Name    string `json:"name,omitempty"`

	// Source is the discriminated circuit source.
	Source *Source `json:"source,omitempty"`
	// Activity optionally annotates the job with switching activity.
	Activity *Activity `json:"activity,omitempty"`

	// Measure names a measurement backend: "", "packed", "fast" or
	// "dense". It is validated for compatibility but keys nothing — every
	// job runs the one packed kernel and reports "packed".
	Measure string `json:"measure,omitempty"`
	// TimeoutMS is the per-job deadline in milliseconds (0 = server
	// default; clamped to the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Wait blocks the response until the job settles.
	Wait bool `json:"wait,omitempty"`
}

// Error is a v1 validation failure: the HTTP status and error-envelope
// code/message the server responds with. It implements error, so the
// client returns the same value its own pre-flight validation produced.
type Error struct {
	Status  int
	Code    string
	Message string
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Message }

func badRequest(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Code: CodeBadRequest,
		Message: fmt.Sprintf(format, args...)}
}

func unprocessable(code, format string, args ...any) *Error {
	return &Error{Status: http.StatusUnprocessableEntity, Code: code,
		Message: fmt.Sprintf(format, args...)}
}

// validMeasure reports whether m is one of the measurement backend names
// the v1 contract accepts ("" always is). The server runs one kernel, so
// the name keys nothing and every job reports "packed"; it is still
// validated so the error bytes of older clients never change.
func validMeasure(m string) bool {
	switch m {
	case "", "packed", "fast", "dense":
		return true
	}
	return false
}

// Validate checks the body against the v1 contract and returns nil or the
// exact Error the server would respond with. Checks run in the server's
// historical order so legacy bodies keep their pre-union error bytes:
// measure, then timeout, then the source rules, then the activity rules.
// Circuit-dependent checks (unknown benchmark names, Verilog that does
// not elaborate, activity inputs that name no primary input) are
// necessarily server-side and not covered here.
func (b *SubmitBody) Validate() *Error {
	if !validMeasure(b.Measure) {
		return badRequest("unknown measure backend %q", b.Measure)
	}
	if b.TimeoutMS < 0 {
		return badRequest("timeout_ms must be >= 0")
	}
	legacy := b.Circuit != "" || b.Bench != "" || b.Name != ""
	switch {
	case b.Source != nil && legacy:
		return unprocessable(CodeBadSource,
			"source cannot be combined with the legacy circuit/bench/name fields")
	case b.Source != nil:
		n := 0
		for _, set := range []bool{b.Source.Circuit != "", b.Source.Bench != "", b.Source.Verilog != ""} {
			if set {
				n++
			}
		}
		if n != 1 {
			return unprocessable(CodeBadSource,
				"exactly one of source.circuit, source.bench or source.verilog must be set")
		}
		if b.Source.Circuit != "" && b.Source.Name != "" {
			return unprocessable(CodeBadSource,
				"source.name is only valid with inline source.bench or source.verilog")
		}
	case b.Circuit != "" && b.Bench != "":
		return badRequest("exactly one of circuit or bench must be set")
	case b.Circuit == "" && b.Bench == "":
		return badRequest("one of circuit or bench must be set")
	}
	if a := b.Activity; a != nil {
		if a.VCD != "" && (a.DefaultInput != nil || len(a.Inputs) > 0) {
			return unprocessable(CodeBadActivity,
				"activity.vcd cannot be combined with explicit activity factors")
		}
		if a.VCD == "" && a.DefaultInput == nil && len(a.Inputs) == 0 {
			return unprocessable(CodeBadActivity,
				"activity block is empty: set inputs, default_input or vcd")
		}
		if a.VCD == "" {
			p := power.ActivityProfile{Default: a.defaultInput(), Inputs: a.Inputs}
			if err := p.Validate(); err != nil {
				return unprocessable(CodeBadActivity, "%s", err.Error())
			}
		}
	}
	return nil
}

// SourceKind discriminates the canonical circuit source of a valid body.
type SourceKind string

// The three circuit-source kinds.
const (
	SourceCircuit SourceKind = "circuit"
	SourceBench   SourceKind = "bench"
	SourceVerilog SourceKind = "verilog"
)

// Resolved returns the canonical (kind, payload, name) of a Validate-clean
// body, folding the legacy flat fields and the union into one form.
// payload is the benchmark name for SourceCircuit and the source text
// otherwise; name is the inline circuit's label, defaulted to DefaultName.
func (b *SubmitBody) Resolved() (kind SourceKind, payload, name string) {
	name = b.Name
	if b.Source != nil {
		name = b.Source.Name
	}
	if name == "" {
		name = DefaultName
	}
	switch {
	case b.Source != nil && b.Source.Circuit != "":
		return SourceCircuit, b.Source.Circuit, ""
	case b.Source != nil && b.Source.Bench != "":
		return SourceBench, b.Source.Bench, name
	case b.Source != nil:
		return SourceVerilog, b.Source.Verilog, name
	case b.Circuit != "":
		return SourceCircuit, b.Circuit, ""
	default:
		return SourceBench, b.Bench, name
	}
}

// defaultInput resolves the block's default activity factor.
func (a *Activity) defaultInput() float64 {
	if a.DefaultInput != nil {
		return *a.DefaultInput
	}
	return DefaultInputActivity
}

// Profile resolves a Validate-clean activity block into the engine's
// profile form. piNames are the target circuit's primary-input names; an
// explicit factor naming no input, or a VCD matching no input, is a
// CodeBadActivity error — silently dropping a typo'd input name would
// weight the wrong thing.
func (a *Activity) Profile(piNames []string) (*power.ActivityProfile, *Error) {
	known := make(map[string]bool, len(piNames))
	for _, n := range piNames {
		known[n] = true
	}
	if a.VCD != "" {
		sigs, err := vcd.ReadActivity(strings.NewReader(a.VCD))
		if err != nil {
			return nil, unprocessable(CodeBadActivity, "%s", err.Error())
		}
		inputs := make(map[string]float64)
		for name, v := range sigs {
			if known[name] {
				inputs[name] = v
			}
		}
		if len(inputs) == 0 {
			return nil, unprocessable(CodeBadActivity,
				"activity.vcd names no primary input of the circuit")
		}
		// Inputs absent from the dump never switched in it.
		return &power.ActivityProfile{Source: "vcd", Default: 0, Inputs: inputs}, nil
	}
	var unknown []string
	for name := range a.Inputs {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, unprocessable(CodeBadActivity,
			"activity.inputs name no primary input: %s", strings.Join(unknown, ", "))
	}
	p := &power.ActivityProfile{Source: "profile", Default: a.defaultInput()}
	if len(a.Inputs) > 0 {
		p.Inputs = make(map[string]float64, len(a.Inputs))
		for name, v := range a.Inputs {
			p.Inputs[name] = v
		}
	}
	return p, nil
}
