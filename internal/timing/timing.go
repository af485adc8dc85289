// Package timing implements the static timing analysis that decides which
// scan-cell outputs may receive a scan-mode multiplexer without degrading
// the circuit's normal-mode clock period (step 1 of the paper, AddMUX).
//
// The delay model is a simple but standard gate-level one: each library
// cell has an intrinsic delay that grows with fanin (series transistor
// stacks) and a load-dependent term proportional to the fanout count of
// its output net. Absolute picosecond values are unimportant for the
// algorithm — only the relative ordering of path delays matters.
package timing

import (
	"math"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// DelayModel gives per-cell delays in picoseconds.
type DelayModel struct {
	// Intrinsic delay per gate type at fanin 2 (fanin 1 for INV/BUF).
	Intrinsic map[logic.GateType]float64
	// PerFanin is added for each input beyond the base arity.
	PerFanin map[logic.GateType]float64
	// PerFanout is added for each reader of the output net beyond the first.
	PerFanout float64
	// FFSetup is the setup margin added at flop D pins (affects only the
	// absolute period, never the relative comparisons).
	FFSetup float64
}

// Default returns the 45 nm-flavored delay model used by all experiments.
// NOR is slower than NAND (stacked PMOS); delays grow with fanin.
func Default() DelayModel {
	return DelayModel{
		Intrinsic: map[logic.GateType]float64{
			logic.Not:  10,
			logic.Buf:  12,
			logic.Nand: 14,
			logic.Nor:  18,
			logic.And:  22, // pre-mapping composite cells
			logic.Or:   26,
			logic.Xor:  30,
			logic.Xnor: 32,
			logic.Mux2: 20,
		},
		PerFanin: map[logic.GateType]float64{
			logic.Not:  0,
			logic.Buf:  0,
			logic.Nand: 4,
			logic.Nor:  6,
			logic.And:  4,
			logic.Or:   6,
			logic.Xor:  12,
			logic.Xnor: 12,
			logic.Mux2: 0,
		},
		PerFanout: 2,
		FFSetup:   5,
	}
}

// GateDelay returns the delay of a gate of type t with the given fanin and
// output fanout count.
func (m DelayModel) GateDelay(t logic.GateType, fanin, fanout int) float64 {
	d := m.Intrinsic[t]
	base := 2
	if t == logic.Not || t == logic.Buf {
		base = 1
	}
	if t == logic.Mux2 {
		base = 3
	}
	if fanin > base {
		d += float64(fanin-base) * m.PerFanin[t]
	}
	if fanout > 1 {
		d += float64(fanout-1) * m.PerFanout
	}
	return d
}

// Analysis holds the results of one STA pass over a frozen circuit.
type Analysis struct {
	c     *netlist.Circuit
	model DelayModel

	// Arrival[n] is the latest signal arrival time at net n, measured from
	// the combinational inputs (PIs and flop outputs, arrival 0).
	Arrival []float64
	// Departure[n] is the longest delay from net n to any timing endpoint
	// (primary output or flop D pin, including setup).
	Departure []float64
	// Critical is the longest combinational path delay (the clock-period
	// lower bound).
	Critical float64
}

// Analyze runs STA on the frozen circuit c.
func Analyze(c *netlist.Circuit, model DelayModel) *Analysis {
	if !c.Frozen() {
		panic("timing: circuit must be frozen")
	}
	a := &Analysis{
		c:         c,
		model:     model,
		Arrival:   make([]float64, c.NumNets()),
		Departure: make([]float64, c.NumNets()),
	}
	gateDelay := make([]float64, c.NumGates())
	for gi := range c.Gates {
		g := &c.Gates[gi]
		out := &c.Nets[g.Output]
		fanout := len(out.Fanout) + len(out.FanoutFF)
		if out.IsPO() {
			fanout++
		}
		if fanout == 0 {
			fanout = 1
		}
		gateDelay[gi] = model.GateDelay(g.Type, len(g.Inputs), fanout)
	}
	// Forward pass: arrival times.
	topo := c.Topo()
	for _, gi := range topo {
		g := &c.Gates[gi]
		at := 0.0
		for _, in := range g.Inputs {
			if a.Arrival[in] > at {
				at = a.Arrival[in]
			}
		}
		a.Arrival[g.Output] = at + gateDelay[gi]
	}
	// Endpoint contributions and backward pass: departures.
	for ni := range c.Nets {
		n := &c.Nets[ni]
		d := math.Inf(-1)
		if n.IsPO() {
			d = 0
		}
		if len(n.FanoutFF) > 0 {
			if s := model.FFSetup; s > d {
				d = s
			}
		}
		a.Departure[ni] = d
	}
	for i := len(topo) - 1; i >= 0; i-- {
		gi := topo[i]
		g := &c.Gates[gi]
		outDep := a.Departure[g.Output]
		if math.IsInf(outDep, -1) {
			continue // dead-end net, no timing endpoint downstream
		}
		through := outDep + gateDelay[gi]
		for _, in := range g.Inputs {
			if through > a.Departure[in] {
				a.Departure[in] = through
			}
		}
	}
	// Critical path = max over nets of arrival+departure (equivalently max
	// over endpoints of arrival+endpoint margin).
	for ni := range c.Nets {
		if math.IsInf(a.Departure[ni], -1) {
			continue
		}
		if t := a.Arrival[ni] + a.Departure[ni]; t > a.Critical {
			a.Critical = t
		}
	}
	return a
}

// SlackAt returns the path slack through net n relative to the critical
// path: Critical - (Arrival[n] + Departure[n]). Nets with no downstream
// timing endpoint have infinite slack.
func (a *Analysis) SlackAt(n netlist.NetID) float64 {
	if math.IsInf(a.Departure[n], -1) {
		return math.Inf(1)
	}
	return a.Critical - (a.Arrival[n] + a.Departure[n])
}

// CriticalNets returns all nets lying on some critical path (slack below
// eps).
func (a *Analysis) CriticalNets(eps float64) []netlist.NetID {
	var out []netlist.NetID
	for ni := range a.c.Nets {
		if a.SlackAt(netlist.NetID(ni)) <= eps {
			out = append(out, netlist.NetID(ni))
		}
	}
	return out
}

// CriticalPath traces one maximal-delay path and returns its nets from a
// combinational input to a timing endpoint.
func (a *Analysis) CriticalPath() []netlist.NetID {
	c := a.c
	const eps = 1e-9
	// Find a zero-slack endpoint-reachable input net.
	start := netlist.InvalidNet
	for _, n := range c.CombInputs() {
		if a.SlackAt(n) <= eps {
			start = n
			break
		}
	}
	if start == netlist.InvalidNet {
		return nil
	}
	path := []netlist.NetID{start}
	cur := start
	for {
		next := netlist.InvalidNet
		for _, gi := range c.Nets[cur].Fanout {
			out := c.Gates[gi].Output
			if a.SlackAt(out) <= eps && a.Arrival[out] > a.Arrival[cur] {
				next = out
				break
			}
		}
		if next == netlist.InvalidNet {
			return path
		}
		path = append(path, next)
		cur = next
	}
}

// WouldMuxChangeCritical reports whether inserting a scan-mode MUX2 at
// pseudo-input net q would increase the critical path delay. This is the
// fast slack-based equivalent of the paper's literal
// "insert, re-run STA, remove if the delay changed" loop: adding muxDelay
// at q lengthens exactly the paths through q, so the critical delay grows
// iff muxDelay exceeds q's slack. (The MUX also sees the full fanout of q
// as load; that load term is what GateDelay models.)
func (a *Analysis) WouldMuxChangeCritical(q netlist.NetID) bool {
	n := &a.c.Nets[q]
	fanout := len(n.Fanout) + len(n.FanoutFF)
	if n.IsPO() {
		fanout++
	}
	if fanout == 0 {
		fanout = 1
	}
	muxDelay := a.model.GateDelay(logic.Mux2, 3, fanout)
	const eps = 1e-9
	return muxDelay > a.SlackAt(q)+eps
}
