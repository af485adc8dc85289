package verilog

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/sim"
)

const sample = `// small sequential design
module demo (a, b, y);
  input a, b;
  output y;
  wire n1, n2, q, d;
  /* the flop */
  dff u0 (q, d);
  nand u1 (n1, a, q);
  nor  u2 (n2, n1, b);
  not  u3 (d, n2);
  nand u4 (y, n1, n2);
endmodule
`

func TestParseSample(t *testing.T) {
	c, err := ParseString(sample, "fallback")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "demo" {
		t.Errorf("module name %q", c.Name)
	}
	st := c.ComputeStats()
	if st.PIs != 2 || st.POs != 1 || st.FFs != 1 || st.Gates != 4 {
		t.Errorf("stats %v", st)
	}
	if st.ByType[logic.Nand] != 2 || st.ByType[logic.Nor] != 1 || st.ByType[logic.Not] != 1 {
		t.Errorf("type histogram %v", st.ByType)
	}
}

func TestRoundTripEquivalence(t *testing.T) {
	orig, err := ParseString(sample, "x")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(sb.String(), "x")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	rng := rand.New(rand.NewSource(1))
	if err := sim.Equivalent(orig, back, 300, rng); err != nil {
		t.Fatalf("round trip not equivalent: %v", err)
	}
}

// TestBenchToVerilogBridge: a circuit parsed from .bench survives a trip
// through Verilog with function intact — the two formats interoperate.
func TestBenchToVerilogBridge(t *testing.T) {
	c := iscas.S27()
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(sb.String(), "s27")
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	if err := sim.Equivalent(c, back, 500, rng); err != nil {
		t.Fatalf("bench->verilog->parse broke s27: %v", err)
	}
	// And back out to .bench for good measure.
	var bb strings.Builder
	if err := bench.Write(&bb, back); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratedBenchmarkRoundTrip(t *testing.T) {
	p, _ := iscas.ByName("s344")
	c, err := iscas.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(sb.String(), "s344")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumGates() != c.NumGates() || back.NumFFs() != c.NumFFs() {
		t.Errorf("size changed: %d/%d -> %d/%d",
			c.NumGates(), c.NumFFs(), back.NumGates(), back.NumFFs())
	}
	rng := rand.New(rand.NewSource(3))
	if err := sim.Equivalent(c, back, 200, rng); err != nil {
		t.Fatalf("not equivalent: %v", err)
	}
}

// TestParseErrors: every rejected source returns an error, never a
// panic; text outside the supported subset is a *ParseError, a netlist
// that parses but does not validate is not.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
		syntax    bool
	}{
		{"no module", "input a;\n", true},
		{"bare module", "module", true},
		{"bare module statement", "module;\ninput a;\nendmodule\n", true},
		{"two modules", "module a (x); input x; endmodule\nmodule b (y); input y; endmodule\n", true},
		{"unknown stmt", "module m (a); input a; assign b = a; endmodule\n", true},
		{"bad instance", "module m (a); input a; nand u1 a; endmodule\n", true},
		{"one port", "module m (a); input a; nand u1 (a); endmodule\n", true},
		{"dff arity", "module m (a); input a; wire q; dff u1 (q, a, a); endmodule\n", true},
		{"empty port", "module m (a); input a; wire x; nand u1 (x, a, ); endmodule\n", true},
		{"undriven", "module m (a, y); input a; output y; wire z; nand u1 (y, a, z); endmodule\n", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseString(c.src, "m")
			if err == nil {
				t.Fatalf("accepted %q", c.src)
			}
			var pe *ParseError
			if got := errors.As(err, &pe); got != c.syntax {
				t.Errorf("%q: error %v is a *ParseError: %v, want %v", c.src, err, got, c.syntax)
			}
		})
	}
}

func TestCommentStripping(t *testing.T) {
	src := "module m (a, y); // ports\ninput a; /* multi\nline */ output y;\nnot u1 (y, a);\nendmodule\n"
	c, err := ParseString(src, "m")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 1 {
		t.Errorf("gates = %d", c.NumGates())
	}
	// Unterminated block comment swallows the rest (no crash).
	if _, err := ParseString("module m (a); /* oops", "m"); err == nil {
		t.Error("accepted module lost in comment")
	}
}

func TestSanitizedModuleName(t *testing.T) {
	c, err := ParseString("module m (a, y); input a; output y; not u1 (y, a); endmodule", "m")
	if err != nil {
		t.Fatal(err)
	}
	c.Name = "9bad name!"
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "module _bad_name_ ") {
		t.Errorf("module name not sanitized:\n%s", sb.String())
	}
}

// TestSplitLinear: a source made of glued "endmodule" keywords splits in
// time linear in its length. Peeling each keyword off by lower-casing
// the whole remainder again took ~17 s for 40k keywords, so 100k of them
// (900 KB, well inside the daemon's 8 MiB source limit) must finish in
// well under the bound.
func TestSplitLinear(t *testing.T) {
	src := "module m (a); input a;" + strings.Repeat("endmodule", 100000)
	done := make(chan int, 1)
	go func() { done <- len(splitStatements(src)) }()
	select {
	case n := <-done:
		if n != 100002 {
			t.Errorf("%d statements, want 100002", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("splitStatements is not linear: 100k glued keywords took over 10 s")
	}
}
