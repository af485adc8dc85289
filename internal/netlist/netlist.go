// Package netlist models gate-level sequential circuits in the style of
// the ISCAS89 benchmarks: primary inputs and outputs, D flip-flops, and a
// combinational network of logic gates.
//
// The package is deliberately index-based: nets and gates are identified
// by dense integer IDs so that simulators, timing analyzers and power
// estimators can keep their per-element state in flat slices.
//
// Full-scan view. Every DFF is assumed to be a scan cell. The Q output of
// a flip-flop is a pseudo-input of the combinational core and its D input
// is a pseudo-output. All algorithms in this repository operate on that
// combinational core: the set of controlled inputs of the paper is
// (primary inputs) ∪ (pseudo-inputs that received a scan-mode multiplexer).
package netlist

import (
	"fmt"
	"sort"

	"repro/internal/logic"
)

// NetID identifies a net (a named signal line) within one Circuit.
type NetID int32

// GateID identifies a combinational gate within one Circuit.
type GateID int32

// InvalidNet is the zero-information NetID.
const InvalidNet NetID = -1

// InvalidGate is the zero-information GateID.
const InvalidGate GateID = -1

// Net is a single signal line. A net is driven by exactly one of: a
// primary input, a flip-flop Q output, or a gate output.
type Net struct {
	Name   string
	Driver GateID // driving gate, or InvalidGate for PIs and flop outputs
	Fanout []GateID
	// FanoutFF lists the flip-flops whose D input reads this net.
	FanoutFF []int
	isPI     bool
	isPPI    bool // flip-flop Q output (pseudo-input)
	isPO     bool
}

// IsPI reports whether the net is a primary input.
func (n *Net) IsPI() bool { return n.isPI }

// IsPPI reports whether the net is a flip-flop output (pseudo-input).
func (n *Net) IsPPI() bool { return n.isPPI }

// IsPO reports whether the net is a primary output.
func (n *Net) IsPO() bool { return n.isPO }

// Gate is one combinational gate instance.
type Gate struct {
	Type   logic.GateType
	Inputs []NetID
	Output NetID
}

// FF is one D flip-flop (scan cell in full-scan designs).
type FF struct {
	Name string
	D    NetID // data input (pseudo-output of the combinational core)
	Q    NetID // output (pseudo-input of the combinational core)
}

// Circuit is a mutable gate-level design. Build it with the Add* methods,
// then call Freeze before handing it to analyses; Freeze computes fanout
// lists and the topological order and validates structural sanity.
type Circuit struct {
	Name  string
	Nets  []Net
	Gates []Gate
	PIs   []NetID
	POs   []NetID
	FFs   []FF

	netByName map[string]NetID
	topo      []GateID // combinational topological order, set by Freeze
	level     []int32  // per-gate logic level, set by Freeze
	frozen    bool
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, netByName: make(map[string]NetID)}
}

// NumNets returns the number of nets.
func (c *Circuit) NumNets() int { return len(c.Nets) }

// NumGates returns the number of combinational gates.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumFFs returns the number of flip-flops.
func (c *Circuit) NumFFs() int { return len(c.FFs) }

// NetByName returns the NetID for name.
func (c *Circuit) NetByName(name string) (NetID, bool) {
	id, ok := c.netByName[name]
	return id, ok
}

// ensureNet returns the existing net named name or creates one.
func (c *Circuit) ensureNet(name string) NetID {
	if id, ok := c.netByName[name]; ok {
		return id
	}
	id := NetID(len(c.Nets))
	c.Nets = append(c.Nets, Net{Name: name, Driver: InvalidGate})
	c.netByName[name] = id
	return id
}

// AddNet declares (or returns) the net named name.
func (c *Circuit) AddNet(name string) NetID {
	c.mutating()
	return c.ensureNet(name)
}

// AddPI declares net name as a primary input and returns its ID.
func (c *Circuit) AddPI(name string) NetID {
	c.mutating()
	id := c.ensureNet(name)
	if !c.Nets[id].isPI {
		c.Nets[id].isPI = true
		c.PIs = append(c.PIs, id)
	}
	return id
}

// MarkPO flags an existing or new net as a primary output.
func (c *Circuit) MarkPO(name string) NetID {
	c.mutating()
	id := c.ensureNet(name)
	if !c.Nets[id].isPO {
		c.Nets[id].isPO = true
		c.POs = append(c.POs, id)
	}
	return id
}

// AddGate adds a gate of type t driving output out from the given inputs,
// all referred to by net name, and returns its GateID.
func (c *Circuit) AddGate(t logic.GateType, out string, inputs ...string) GateID {
	c.mutating()
	ins := make([]NetID, len(inputs))
	for i, n := range inputs {
		ins[i] = c.ensureNet(n)
	}
	o := c.ensureNet(out)
	return c.AddGateNets(t, o, ins...)
}

// AddGateNets is AddGate with pre-resolved net IDs.
func (c *Circuit) AddGateNets(t logic.GateType, out NetID, inputs ...NetID) GateID {
	c.mutating()
	g := GateID(len(c.Gates))
	c.Gates = append(c.Gates, Gate{Type: t, Inputs: inputs, Output: out})
	c.Nets[out].Driver = g
	return g
}

// AddFF adds a D flip-flop named name reading net d and driving net q.
func (c *Circuit) AddFF(name, q, d string) int {
	c.mutating()
	qid := c.ensureNet(q)
	did := c.ensureNet(d)
	c.Nets[qid].isPPI = true
	c.FFs = append(c.FFs, FF{Name: name, D: did, Q: qid})
	return len(c.FFs) - 1
}

func (c *Circuit) mutating() {
	if c.frozen {
		c.frozen = false
		c.topo = nil
		c.level = nil
		for i := range c.Nets {
			c.Nets[i].Fanout = nil
			c.Nets[i].FanoutFF = nil
		}
	}
}

// doublyDriven is Freeze's error for net id having a second driver.
func (c *Circuit) doublyDriven(id NetID) error {
	return fmt.Errorf("netlist %s: net %q has more than one driver", c.Name, c.Nets[id].Name)
}

// Frozen reports whether Freeze has been called since the last mutation.
func (c *Circuit) Frozen() bool { return c.frozen }

// Freeze validates the circuit, computes fanout lists, the combinational
// topological order and per-gate levels. It must be called before any
// analysis. Calling it twice is a no-op.
func (c *Circuit) Freeze() error {
	if c.frozen {
		return nil
	}
	// Fanout lists.
	for gi := range c.Gates {
		g := &c.Gates[gi]
		if len(g.Inputs) == 0 {
			return fmt.Errorf("netlist %s: gate %d (%v->%s) has no inputs",
				c.Name, gi, g.Type, c.Nets[g.Output].Name)
		}
		switch g.Type {
		case logic.Not, logic.Buf:
			if len(g.Inputs) != 1 {
				return fmt.Errorf("netlist %s: %v gate %d has %d inputs",
					c.Name, g.Type, gi, len(g.Inputs))
			}
		case logic.Mux2:
			if len(g.Inputs) != 3 {
				return fmt.Errorf("netlist %s: MUX2 gate %d has %d inputs",
					c.Name, gi, len(g.Inputs))
			}
		default:
			if len(g.Inputs) < 2 {
				return fmt.Errorf("netlist %s: %v gate %d has %d inputs",
					c.Name, g.Type, gi, len(g.Inputs))
			}
		}
		// AddGateNets points the output at its latest driver, so an
		// earlier gate on the same net no longer owns it.
		if c.Nets[g.Output].Driver != GateID(gi) {
			return c.doublyDriven(g.Output)
		}
		for _, in := range g.Inputs {
			c.Nets[in].Fanout = append(c.Nets[in].Fanout, GateID(gi))
		}
	}
	ffQ := make(map[NetID]bool, len(c.FFs))
	for fi, ff := range c.FFs {
		if ffQ[ff.Q] || c.Nets[ff.Q].isPI {
			return c.doublyDriven(ff.Q)
		}
		ffQ[ff.Q] = true
		c.Nets[ff.D].FanoutFF = append(c.Nets[ff.D].FanoutFF, fi)
	}
	// Every net needs a source.
	for ni := range c.Nets {
		n := &c.Nets[ni]
		if n.Driver == InvalidGate && !n.isPI && !n.isPPI {
			return fmt.Errorf("netlist %s: net %q is undriven", c.Name, n.Name)
		}
		if n.Driver != InvalidGate && (n.isPI || n.isPPI) {
			return fmt.Errorf("netlist %s: net %q is both gate-driven and an input",
				c.Name, n.Name)
		}
	}
	// Kahn topological sort over combinational gates.
	indeg := make([]int32, len(c.Gates))
	for gi := range c.Gates {
		for _, in := range c.Gates[gi].Inputs {
			if c.Nets[in].Driver != InvalidGate {
				indeg[gi]++
			}
		}
	}
	queue := make([]GateID, 0, len(c.Gates))
	for gi := range c.Gates {
		if indeg[gi] == 0 {
			queue = append(queue, GateID(gi))
		}
	}
	c.topo = make([]GateID, 0, len(c.Gates))
	c.level = make([]int32, len(c.Gates))
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		c.topo = append(c.topo, g)
		lvl := int32(0)
		for _, in := range c.Gates[g].Inputs {
			if d := c.Nets[in].Driver; d != InvalidGate && c.level[d]+1 > lvl {
				lvl = c.level[d] + 1
			}
		}
		c.level[g] = lvl
		for _, succ := range c.Nets[c.Gates[g].Output].Fanout {
			indeg[succ]--
			if indeg[succ] == 0 {
				queue = append(queue, succ)
			}
		}
	}
	if len(c.topo) != len(c.Gates) {
		return fmt.Errorf("netlist %s: combinational cycle detected (%d of %d gates ordered)",
			c.Name, len(c.topo), len(c.Gates))
	}
	c.frozen = true
	return nil
}

// MustFreeze is Freeze that panics on error; for tests and generators that
// construct circuits known to be well formed.
func (c *Circuit) MustFreeze() {
	if err := c.Freeze(); err != nil {
		panic(err)
	}
}

// Topo returns the combinational gates in topological order. The slice is
// shared; callers must not modify it.
func (c *Circuit) Topo() []GateID {
	c.needFrozen()
	return c.topo
}

// Level returns the logic level (longest gate-count distance from any
// circuit input) of gate g.
func (c *Circuit) Level(g GateID) int {
	c.needFrozen()
	return int(c.level[g])
}

// Depth returns the maximum logic level plus one, i.e. the number of gate
// levels on the longest combinational path. Zero for gate-free circuits.
func (c *Circuit) Depth() int {
	c.needFrozen()
	d := 0
	for _, l := range c.level {
		if int(l)+1 > d {
			d = int(l) + 1
		}
	}
	return d
}

func (c *Circuit) needFrozen() {
	if !c.frozen {
		panic("netlist: circuit used before Freeze (call Freeze after building)")
	}
}

// PseudoInputs returns the flip-flop output nets in flop order.
func (c *Circuit) PseudoInputs() []NetID {
	out := make([]NetID, len(c.FFs))
	for i, ff := range c.FFs {
		out[i] = ff.Q
	}
	return out
}

// PseudoOutputs returns the flip-flop data-input nets in flop order.
func (c *Circuit) PseudoOutputs() []NetID {
	out := make([]NetID, len(c.FFs))
	for i, ff := range c.FFs {
		out[i] = ff.D
	}
	return out
}

// CombInputs returns all combinational-core input nets: primary inputs
// followed by pseudo-inputs.
func (c *Circuit) CombInputs() []NetID {
	out := make([]NetID, 0, len(c.PIs)+len(c.FFs))
	out = append(out, c.PIs...)
	out = append(out, c.PseudoInputs()...)
	return out
}

// Clone returns a deep, unfrozen copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	cp := New(c.Name)
	cp.Nets = make([]Net, len(c.Nets))
	for i, n := range c.Nets {
		cp.Nets[i] = Net{Name: n.Name, Driver: n.Driver,
			isPI: n.isPI, isPPI: n.isPPI, isPO: n.isPO}
		cp.netByName[n.Name] = NetID(i)
	}
	cp.Gates = make([]Gate, len(c.Gates))
	for i, g := range c.Gates {
		ins := make([]NetID, len(g.Inputs))
		copy(ins, g.Inputs)
		cp.Gates[i] = Gate{Type: g.Type, Inputs: ins, Output: g.Output}
	}
	cp.PIs = append([]NetID(nil), c.PIs...)
	cp.POs = append([]NetID(nil), c.POs...)
	cp.FFs = append([]FF(nil), c.FFs...)
	return cp
}

// Stats summarizes a circuit for reports and generators.
type Stats struct {
	Name    string
	PIs     int
	POs     int
	FFs     int
	Gates   int
	Nets    int
	Depth   int
	ByType  map[logic.GateType]int
	Fanout  float64 // mean gate fanout
	MaxFan  int
	MaxArit int
}

// ComputeStats gathers statistics; the circuit must be frozen.
func (c *Circuit) ComputeStats() Stats {
	c.needFrozen()
	s := Stats{
		Name: c.Name, PIs: len(c.PIs), POs: len(c.POs), FFs: len(c.FFs),
		Gates: len(c.Gates), Nets: len(c.Nets), Depth: c.Depth(),
		ByType: make(map[logic.GateType]int),
	}
	totalFan := 0
	for _, g := range c.Gates {
		s.ByType[g.Type]++
		if len(g.Inputs) > s.MaxArit {
			s.MaxArit = len(g.Inputs)
		}
		fan := len(c.Nets[g.Output].Fanout) + len(c.Nets[g.Output].FanoutFF)
		totalFan += fan
		if fan > s.MaxFan {
			s.MaxFan = fan
		}
	}
	if len(c.Gates) > 0 {
		s.Fanout = float64(totalFan) / float64(len(c.Gates))
	}
	return s
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d PI, %d PO, %d FF, %d gates, depth %d",
		s.Name, s.PIs, s.POs, s.FFs, s.Gates, s.Depth)
}

// SortedNetNames returns all net names in sorted order (stable output for
// writers and tests).
func (c *Circuit) SortedNetNames() []string {
	names := make([]string, len(c.Nets))
	for i, n := range c.Nets {
		names[i] = n.Name
	}
	sort.Strings(names)
	return names
}
