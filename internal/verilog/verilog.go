// Package verilog reads and writes gate-level structural Verilog for the
// circuits this repository manipulates — the interchange format every
// downstream EDA flow speaks. The supported subset is primitive-only
// netlists:
//
//	module s27 (G0, G1, G17);
//	  input G0, G1;
//	  output G17;
//	  wire n1, n2;
//	  nand u1 (n1, G0, G1);   // output first, as for Verilog primitives
//	  not  u2 (G17, n1);
//	  dff  u3 (q, d);         // flop convention: (Q, D)
//	endmodule
//
// Comments (// and /* */) are stripped; statements end at ';'. The writer
// emits exactly this shape, and the round trip is tested to preserve the
// circuit.
package verilog

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// ParseError reports source text outside the supported subset.
type ParseError struct {
	Msg string
}

// Error implements the error interface.
func (e *ParseError) Error() string { return "verilog: " + e.Msg }

func syntaxError(format string, args ...any) error {
	return &ParseError{Msg: fmt.Sprintf(format, args...)}
}

// Parse reads one structural module. If the source omits a module name,
// fallback is used.
func Parse(r io.Reader, fallback string) (*netlist.Circuit, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("verilog: read: %w", err)
	}
	src, err := stripComments(string(raw))
	if err != nil {
		return nil, err
	}
	stmts := splitStatements(src)
	c := netlist.New(fallback)
	seenModule := false
	ffCount := 0
	for _, st := range stmts {
		fields := strings.Fields(st)
		if len(fields) == 0 {
			continue
		}
		switch kw := strings.ToLower(fields[0]); kw {
		case "module":
			if seenModule {
				return nil, syntaxError("multiple modules (only one supported)")
			}
			seenModule = true
			if len(fields) < 2 {
				return nil, syntaxError("module statement %q has neither a name nor ports", st)
			}
			name := fields[1]
			if i := strings.IndexByte(name, '('); i >= 0 {
				name = name[:i]
			}
			if name != "" {
				c.Name = name
			}
			// The port list itself carries no direction info; directions
			// come from input/output declarations.
		case "endmodule":
			// done; trailing statements ignored by splitStatements anyway
		case "input":
			for _, n := range declNames(st) {
				c.AddPI(n)
			}
		case "output":
			for _, n := range declNames(st) {
				c.MarkPO(n)
			}
		case "wire", "reg":
			for _, n := range declNames(st) {
				c.AddNet(n)
			}
		case "nand", "nor", "not", "and", "or", "xor", "xnor", "buf", "mux2", "dff":
			out, ins, err := instancePorts(st)
			if err != nil {
				return nil, err
			}
			if kw == "dff" {
				if len(ins) != 1 {
					return nil, syntaxError("dff %q needs (Q, D)", st)
				}
				ffCount++
				c.AddFF(fmt.Sprintf("ff%d_%s", ffCount, out), out, ins[0])
				continue
			}
			gt, ok := logic.ParseGateType(strings.ToUpper(kw))
			if !ok {
				return nil, syntaxError("unknown primitive %q", kw)
			}
			c.AddGate(gt, out, ins...)
		default:
			return nil, syntaxError("unsupported statement %q", st)
		}
	}
	if !seenModule {
		return nil, syntaxError("no module found")
	}
	if err := c.Freeze(); err != nil {
		return nil, fmt.Errorf("verilog: %w", err)
	}
	return c, nil
}

// ParseString is Parse over a string.
func ParseString(src, fallback string) (*netlist.Circuit, error) {
	return Parse(strings.NewReader(src), fallback)
}

// stripComments removes // line and /* block */ comments.
func stripComments(src string) (string, error) {
	var out strings.Builder
	for i := 0; i < len(src); {
		if strings.HasPrefix(src[i:], "//") {
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		}
		if strings.HasPrefix(src[i:], "/*") {
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return "", syntaxError("unterminated block comment")
			}
			i += 2 + end + 2
			out.WriteByte(' ')
			continue
		}
		out.WriteByte(src[i])
		i++
	}
	return out.String(), nil
}

// splitStatements splits on ';', keeping "endmodule" as its own
// statement (it has no terminating semicolon). Each part is lower-cased
// once and scanned forward, so the split is linear in the source.
func splitStatements(src string) []string {
	var out []string
	for _, part := range strings.Split(src, ";") {
		// "endmodule" carries no semicolon, so it can glue to neighbours
		// on both sides; peel every occurrence off as its own statement.
		lower := asciiLower(part)
		for {
			idx := strings.Index(lower, "endmodule")
			if idx < 0 {
				if rest := strings.TrimSpace(part); rest != "" {
					out = append(out, rest)
				}
				break
			}
			if head := strings.TrimSpace(part[:idx]); head != "" {
				out = append(out, head)
			}
			out = append(out, "endmodule")
			part, lower = part[idx+len("endmodule"):], lower[idx+len("endmodule"):]
		}
	}
	return out
}

// asciiLower lower-cases the ASCII letters of s. Unlike strings.ToLower
// it keeps every byte offset, so an index into the result is an index
// into s even when s is not valid UTF-8.
func asciiLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// declNames extracts the identifiers of an input/output/wire declaration.
func declNames(st string) []string {
	st = strings.TrimSpace(st)
	if i := strings.IndexAny(st, " \t\n"); i >= 0 {
		st = st[i:]
	}
	var out []string
	for _, n := range strings.Split(st, ",") {
		n = strings.TrimSpace(n)
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}

// instancePorts parses "prim name (out, in1, in2)" and returns the ports.
func instancePorts(st string) (string, []string, error) {
	open := strings.IndexByte(st, '(')
	close_ := strings.LastIndexByte(st, ')')
	if open < 0 || close_ < open {
		return "", nil, syntaxError("malformed instance %q", st)
	}
	var ports []string
	for _, pp := range strings.Split(st[open+1:close_], ",") {
		pp = strings.TrimSpace(pp)
		if pp == "" {
			return "", nil, syntaxError("empty port in %q", st)
		}
		ports = append(ports, pp)
	}
	if len(ports) < 2 {
		return "", nil, syntaxError("instance %q needs at least 2 ports", st)
	}
	return ports[0], ports[1:], nil
}

// Write emits the circuit as one structural module.
func Write(w io.Writer, c *netlist.Circuit) error {
	bw := bufio.NewWriter(w)
	var ports []string
	for _, pi := range c.PIs {
		ports = append(ports, c.Nets[pi].Name)
	}
	for _, po := range c.POs {
		ports = append(ports, c.Nets[po].Name)
	}
	fmt.Fprintf(bw, "module %s (%s);\n", sanitizeName(c.Name), strings.Join(ports, ", "))
	writeDecl(bw, "input", c, c.PIs)
	writeDecl(bw, "output", c, c.POs)
	var wires []string
	for ni := range c.Nets {
		n := &c.Nets[ni]
		if n.IsPI() || n.IsPO() {
			continue
		}
		wires = append(wires, n.Name)
	}
	if len(wires) > 0 {
		fmt.Fprintf(bw, "  wire %s;\n", strings.Join(wires, ", "))
	}
	for fi, ff := range c.FFs {
		fmt.Fprintf(bw, "  dff u_ff%d (%s, %s);\n",
			fi, c.Nets[ff.Q].Name, c.Nets[ff.D].Name)
	}
	for i, gi := range c.Topo() {
		g := &c.Gates[gi]
		prim := strings.ToLower(g.Type.String())
		names := make([]string, 0, len(g.Inputs)+1)
		names = append(names, c.Nets[g.Output].Name)
		for _, in := range g.Inputs {
			names = append(names, c.Nets[in].Name)
		}
		fmt.Fprintf(bw, "  %s u%d (%s);\n", prim, i, strings.Join(names, ", "))
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

func writeDecl(w io.Writer, kw string, c *netlist.Circuit, nets []netlist.NetID) {
	if len(nets) == 0 {
		return
	}
	names := make([]string, len(nets))
	for i, n := range nets {
		names[i] = c.Nets[n].Name
	}
	fmt.Fprintf(w, "  %s %s;\n", kw, strings.Join(names, ", "))
}

func sanitizeName(s string) string {
	if s == "" {
		return "top"
	}
	out := []byte(s)
	for i, ch := range out {
		ok := ch == '_' || ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' ||
			(i > 0 && ch >= '0' && ch <= '9')
		if !ok {
			out[i] = '_'
		}
	}
	return string(out)
}
