package verilog

import (
	"strings"
	"testing"

	"repro/internal/iscas"
)

// FuzzVerilog drives the Verilog reader with arbitrary input: ParseString
// returns an error or a frozen circuit, and never panics. The daemon
// parses inline Verilog from job submissions, so a panic here is a
// request that takes down a worker.
//
// The seed corpus runs as part of `go test`; `go test -fuzz=FuzzVerilog`
// explores further, and crashers it finds are kept as seeds under
// testdata/fuzz/FuzzVerilog.
func FuzzVerilog(f *testing.F) {
	var s27 strings.Builder
	if err := Write(&s27, iscas.S27()); err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		"",
		"module",
		"module;",
		"module (a); input a; endmodule",
		sample,
		s27.String(),
		"module m (a, y); // ports\ninput a; /* multi\nline */ output y;\nnot u1 (y, a);\nendmodule\n",
		"module m (a); /* oops",
		"input a;\n",
		"module a (x); input x; endmodule\nmodule b (y); input y; endmodule\n",
		"module m (a); input a; assign b = a; endmodule\n",
		"module m (a); input a; nand u1 a; endmodule\n",
		"module m (a); input a; nand u1 (a); endmodule\n",
		"module m (a); input a; wire q; dff u1 (q, a, a); endmodule\n",
		"module m (a); input a; wire x; nand u1 (x, a, ); endmodule\n",
		"module m (a, y); input a; output y; wire z; nand u1 (y, a, z); endmodule\n",
		"module m (a, y); input a; output y; nand u1 (y, a, y); endmodule\n",
		"module m (a, y); input a; output y; mux2 u1 (y, a, a, a); endmodule\n",
		"module m (a, y); input a; output y; not u1 (y, a); not u2 (y, a); endmodule\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseString(src, "fuzz")
		if err != nil {
			if c != nil {
				t.Fatal("returned a circuit alongside an error")
			}
			return // rejection is fine; panics are not
		}
		if c == nil || !c.Frozen() {
			t.Fatal("accepted source without a frozen circuit")
		}
	})
}
