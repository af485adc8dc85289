package scan

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Materialized describes the stitched gate-level scan netlist produced by
// Materialize, with the indices of its added ports.
type Materialized struct {
	// Circuit is the structural netlist: every flop's D input goes
	// through a scan-path MUX (functional data vs. the previous cell's
	// output), muxed flops additionally carry the scan-mode output MUX of
	// the paper, and the added primary inputs drive scan-in, Shift Enable
	// and the tie rails.
	Circuit *netlist.Circuit
	// SI, SE are indices into Circuit.PIs for the scan-in and shift
	// enable ports; Tie0/Tie1 are -1 when unused.
	SI, SE     int
	Tie0, Tie1 int
	// SO is the index into Circuit.POs of the scan-out port.
	SO int
	// OrigPI[i] gives, for each original primary input i, its index in
	// Circuit.PIs.
	OrigPI []int
}

// Materialize stitches a single scan chain into the netlist: the
// behavioral protocol of Chains.Run becomes real gates and wires, so a
// cycle-accurate simulation of the result must reproduce Run's behaviour
// exactly — that equivalence is what the cross-validation tests check.
// The netlist has one scan-in and one scan-out port, so ch must be one
// chain through at least one flop.
//
// cfg supplies the scan-mode output MUXes (the paper's structure); pass
// Traditional(c) for a plain scan stitch.
func Materialize(ch *Chains, cfg ShiftConfig) (*Materialized, error) {
	c := ch.c
	if ch.NumChains() != 1 || ch.MaxLength() == 0 {
		return nil, fmt.Errorf("scan: Materialize stitches one non-empty chain, got %d chains of up to %d flops",
			ch.NumChains(), ch.MaxLength())
	}
	order := ch.Groups[0]
	if err := cfg.Validate(c); err != nil {
		return nil, err
	}
	nb := netlist.New(c.Name + "_scan")
	m := &Materialized{Tie0: -1, Tie1: -1}

	// Original primary inputs first, then the scan control ports.
	m.OrigPI = make([]int, len(c.PIs))
	for i, pi := range c.PIs {
		nb.AddPI(c.Nets[pi].Name)
		m.OrigPI[i] = i
	}
	siName := unique(c, "SI")
	seName := unique(c, "SE")
	nb.AddPI(siName)
	m.SI = len(c.PIs)
	nb.AddPI(seName)
	m.SE = len(c.PIs) + 1
	next := len(c.PIs) + 2
	needTie0, needTie1 := false, false
	for f, muxed := range cfg.Muxed {
		if muxed {
			if cfg.MuxVal[f] {
				needTie1 = true
			} else {
				needTie0 = true
			}
		}
	}
	tie0Name, tie1Name := unique(c, "TIE0"), unique(c, "TIE1")
	if needTie0 {
		nb.AddPI(tie0Name)
		m.Tie0 = next
		next++
	}
	if needTie1 {
		nb.AddPI(tie1Name)
		m.Tie1 = next
		next++
	}

	// Flops: scan-path MUX on D; chain wiring by position; optional
	// output MUX per the paper's structure.
	for f, ff := range c.FFs {
		q := c.Nets[ff.Q].Name
		d := c.Nets[ff.D].Name
		pos := ch.at[f]
		var si string
		if pos == 0 {
			si = siName
		} else {
			// Scan input comes from the *raw* flop output of the previous
			// chain position (before any scan-mode output MUX).
			si = rawQName(c, order[pos-1], cfg)
		}
		dmux := unique(c, fmt.Sprintf("%s_scanD", q))
		nb.AddGate(logic.Mux2, dmux, d, si, seName)
		rq := rawQName(c, f, cfg)
		nb.AddFF(ff.Name, rq, dmux)
		if cfg.Muxed[f] {
			tie := tie0Name
			if cfg.MuxVal[f] {
				tie = tie1Name
			}
			// Output MUX: shift enable selects the tied constant.
			nb.AddGate(logic.Mux2, q, rq, tie, seName)
		}
	}
	// Combinational gates unchanged.
	for _, g := range c.Gates {
		ins := make([]string, len(g.Inputs))
		for i, in := range g.Inputs {
			ins[i] = c.Nets[in].Name
		}
		nb.AddGate(g.Type, c.Nets[g.Output].Name, ins...)
	}
	for _, po := range c.POs {
		nb.MarkPO(c.Nets[po].Name)
	}
	// Scan-out: raw output of the last chain cell.
	last := order[len(order)-1]
	nb.MarkPO(rawQName(c, last, cfg))
	m.SO = len(c.POs)
	if err := nb.Freeze(); err != nil {
		return nil, fmt.Errorf("scan: materialized netlist invalid: %w", err)
	}
	m.Circuit = nb
	return m, nil
}

// rawQName returns the net name carrying flop f's true output in the
// materialized netlist: the original Q name, unless the flop has a
// scan-mode output MUX (then the original name is the MUX output and the
// flop drives a _raw net).
func rawQName(c *netlist.Circuit, f int, cfg ShiftConfig) string {
	q := c.Nets[c.FFs[f].Q].Name
	if cfg.Muxed[f] {
		return unique(c, q+"_raw")
	}
	return q
}

// unique returns base, suffixed if it collides with an existing net of
// the source circuit.
func unique(c *netlist.Circuit, base string) string {
	if _, ok := c.NetByName(base); !ok {
		return base
	}
	for i := 1; ; i++ {
		name := fmt.Sprintf("%s_%d", base, i)
		if _, ok := c.NetByName(name); !ok {
			return name
		}
	}
}

// Drive computes the primary-input vector of the materialized netlist for
// one cycle: the original PI values, the scan-in bit, and shift enable.
func (m *Materialized) Drive(origPI []bool, si, se bool) []bool {
	out := make([]bool, len(m.Circuit.PIs))
	for i, idx := range m.OrigPI {
		out[idx] = origPI[i]
	}
	out[m.SI] = si
	out[m.SE] = se
	if m.Tie0 >= 0 {
		out[m.Tie0] = false
	}
	if m.Tie1 >= 0 {
		out[m.Tie1] = true
	}
	return out
}
