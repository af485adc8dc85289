// Package scan models full-scan test application: the scan chain threaded
// through every flip-flop, the shift/capture protocol of test-per-scan
// schemes, and the behaviour of the combinational inputs during shifting
// under the three structures compared in the paper:
//
//   - traditional scan: every pseudo-input follows the moving chain
//     contents; primary inputs hold the test's PI bits;
//   - input control (Huang & Lee): as traditional, but the primary inputs
//     hold a computed transition-blocking pattern during shifting;
//   - the proposed structure: additionally, the pseudo-inputs that
//     received a scan-mode MUX are frozen at chosen constants while the
//     chain shifts behind them (select line = Shift Enable).
package scan

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Pattern is one scan test: the primary-input bits applied at capture (and
// held during shift under traditional scan) and the state to be loaded
// into the flip-flops, indexed in netlist FF order.
type Pattern struct {
	PI    []bool
	State []bool
}

// ShiftConfig describes how the combinational inputs behave while the
// chain shifts.
type ShiftConfig struct {
	// PIHold[i] is the value held on primary input i during shifting;
	// logic.X means "hold the current pattern's PI bit" (traditional ATE
	// behaviour).
	PIHold []logic.Value
	// Muxed[f] reports whether flop f's output has a scan-mode MUX; if so
	// MuxVal[f] is the constant seen by the combinational logic during
	// shifting.
	Muxed  []bool
	MuxVal []bool
}

// Traditional returns the plain scan structure for circuit c: no MUXes,
// PIs hold the pattern bits.
func Traditional(c *netlist.Circuit) ShiftConfig {
	return ShiftConfig{
		PIHold: make([]logic.Value, len(c.PIs)), // all X
		Muxed:  make([]bool, c.NumFFs()),
		MuxVal: make([]bool, c.NumFFs()),
	}
}

// Validate checks cfg against circuit c.
func (cfg *ShiftConfig) Validate(c *netlist.Circuit) error {
	if len(cfg.PIHold) != len(c.PIs) {
		return fmt.Errorf("scan: PIHold has %d entries for %d PIs", len(cfg.PIHold), len(c.PIs))
	}
	if len(cfg.Muxed) != c.NumFFs() || len(cfg.MuxVal) != c.NumFFs() {
		return fmt.Errorf("scan: Muxed/MuxVal sized %d/%d for %d flops",
			len(cfg.Muxed), len(cfg.MuxVal), c.NumFFs())
	}
	return nil
}

// Varying returns the combinational inputs whose value can change
// between shift cycles, as PI indices and FF indices: the primary inputs
// without a held constant and the flops without a scan-mode MUX. On
// every shift cycle the other inputs carry their constant: the PIHold
// value or the MuxVal.
func (cfg *ShiftConfig) Varying() (pis, ffs []int) {
	for i, h := range cfg.PIHold {
		if !h.IsBinary() {
			pis = append(pis, i)
		}
	}
	for f, m := range cfg.Muxed {
		if !m {
			ffs = append(ffs, f)
		}
	}
	return pis, ffs
}

// shiftInputs returns the (pi, ppi) slices Run hands to ShiftCycle with
// every held and frozen entry set, and the entries each cycle refreshes.
func (cfg *ShiftConfig) shiftInputs() (pi, ppi []bool, varPI, varFF []int) {
	pi = make([]bool, len(cfg.PIHold))
	for i, h := range cfg.PIHold {
		pi[i] = h == logic.One
	}
	ppi = make([]bool, len(cfg.Muxed))
	for f, m := range cfg.Muxed {
		ppi[f] = m && cfg.MuxVal[f]
	}
	varPI, varFF = cfg.Varying()
	return pi, ppi, varPI, varFF
}

// MuxCount returns the number of multiplexed flops.
func (cfg *ShiftConfig) MuxCount() int {
	n := 0
	for _, m := range cfg.Muxed {
		if m {
			n++
		}
	}
	return n
}

// Hooks receive the simulation events of Run. Any hook may be nil.
type Hooks struct {
	// ShiftCycle is called once per shift clock with the combinational
	// input values seen by the logic during that cycle: pi in PI order,
	// ppi in FF order (already accounting for MUX freezing). The slices
	// are reused across calls; copy to retain, and do not modify them:
	// Run writes the held and frozen entries once per run and refreshes
	// only the Varying ones each cycle.
	ShiftCycle func(pi, ppi []bool)
	// Capture is called at each capture clock with the inputs applied
	// (pattern PI bits, fully loaded state — exactly the pattern's PI
	// and State). It must return the
	// next-state response of the combinational logic in FF order (the
	// simulator's job); Run loads it into the chain so the following
	// shift-out carries realistic response data.
	Capture func(pi, ppi []bool) []bool
	// Stop, when non-nil, is consulted before each pattern; a non-nil
	// return aborts Run with that error. Power measurement wires a
	// context's Err here so long runs stay cancellable.
	Stop func() error
}
