package service

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro"
)

// FuzzSubmit feeds arbitrary POST /v1/jobs bodies through the submit
// path: decode, api.SubmitBody.Validate, resolveSource (the named-submit
// table, or the .bench and Verilog parsers with library mapping), the
// activity block, and then the default Runner, Engine.CompareWith, under
// a short deadline. Every step may return an error; none may panic. The
// Runner is called directly, outside runRecovered's panic boundary, so a
// panic the job boundary would have hidden fails the fuzz instead.
func FuzzSubmit(f *testing.F) {
	seeds := []map[string]any{
		{"circuit": "s344"},
		{"circuit": "s27"},
		{"source": map[string]any{"circuit": "s382"}, "activity": map[string]any{"default_input": 0.2}},
		{"source": map[string]any{"circuit": "s344"}, "activity": map[string]any{"inputs": map[string]any{"nope": 0.5}}},
		{"bench": s27Bench, "name": "s27"},
		{"source": map[string]any{"bench": s27Bench}, "activity": map[string]any{"vcd": s27VCD}},
		{"source": map[string]any{"verilog": s27Verilog, "name": "s27v"}, "timeout_ms": 5},
		{"source": map[string]any{"verilog": "module"}},
		{"source": map[string]any{"bench": benchTwoGates}},
		{"source": map[string]any{"bench": benchTwoFFs}},
		{"bench": "INPUT(a)\nOUTPUT(z)\nz = NAND(a, floating)\n"},
		{"circuit": "s344", "bench": s27Bench},
	}
	for _, s := range seeds {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	eng := scanpower.NewEngine(scanpower.DefaultConfig())
	f.Fuzz(func(t *testing.T, body string) {
		var req submitRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil || req.Validate() != nil {
			return
		}
		src, serr := resolveSource(&req)
		if serr != nil {
			return
		}
		cfg := eng.Cfg
		if req.Activity != nil {
			prof, aerr := req.Activity.Profile(src.inputs)
			if aerr != nil {
				return
			}
			cfg.Activity = prof
		}
		c := src.circ
		if c == nil {
			var err error
			if c, err = generateBenchmark(src.name); err != nil {
				t.Fatalf("the named-submit table resolved %q, but generating it failed: %v", src.name, err)
			}
		}
		if c.Fingerprint() != src.fp {
			t.Fatalf("%s: job key fingerprint %x, circuit fingerprint %x", src.name, src.fp, c.Fingerprint())
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		cmp, err := eng.CompareWith(ctx, c, cfg)
		if err == nil && cmp == nil {
			t.Fatal("CompareWith returned neither a result nor an error")
		}
	})
}
