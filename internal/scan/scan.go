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

// Chain is a scan chain over every flip-flop of a circuit.
type Chain struct {
	c *netlist.Circuit
	// Order[p] is the FF index at chain position p; position 0 is nearest
	// the scan input, position len-1 drives the scan output.
	Order []int
	pos   []int // pos[ffIndex] = chain position
}

// New threads a chain through the flops in netlist order.
func New(c *netlist.Circuit) *Chain {
	order := make([]int, c.NumFFs())
	for i := range order {
		order[i] = i
	}
	ch, _ := NewWithOrder(c, order)
	return ch
}

// NewWithOrder threads the chain in the given FF order (a permutation of
// 0..NumFFs-1).
func NewWithOrder(c *netlist.Circuit, order []int) (*Chain, error) {
	if len(order) != c.NumFFs() {
		return nil, fmt.Errorf("scan: order has %d entries for %d flops", len(order), c.NumFFs())
	}
	pos := make([]int, len(order))
	for i := range pos {
		pos[i] = -1
	}
	for p, ff := range order {
		if ff < 0 || ff >= len(order) || pos[ff] != -1 {
			return nil, fmt.Errorf("scan: order is not a permutation (entry %d = %d)", p, ff)
		}
		pos[ff] = p
	}
	return &Chain{c: c, Order: append([]int(nil), order...), pos: pos}, nil
}

// Circuit returns the underlying circuit.
func (ch *Chain) Circuit() *netlist.Circuit { return ch.c }

// Length returns the number of scan cells.
func (ch *Chain) Length() int { return len(ch.Order) }

// PositionOf returns the chain position of flop ff.
func (ch *Chain) PositionOf(ff int) int { return ch.pos[ff] }

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
// between the cycles a measurement observes, as PI indices and FF
// indices: the primary inputs without a held constant and the flops
// without a scan-mode MUX — or every input when the capture cycles are
// observed too, since a capture applies the pattern's own PI and state
// bits. On every shift cycle the other inputs carry their constant: the
// PIHold value or the MuxVal.
func (cfg *ShiftConfig) Varying(withCapture bool) (pis, ffs []int) {
	for i, h := range cfg.PIHold {
		if withCapture || !h.IsBinary() {
			pis = append(pis, i)
		}
	}
	for f, m := range cfg.Muxed {
		if withCapture || !m {
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
	varPI, varFF = cfg.Varying(false)
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

// Hooks receive the simulation events of Run. Either hook may be nil.
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

// Run applies the patterns through the chain: for each pattern, Length()
// shift cycles (during which the previous response shifts out as the new
// state shifts in) followed by one capture; after the last pattern the
// final response is flushed out with zero fill. The initial chain content
// is all zeros.
//
// Run reports, via hooks, exactly what the combinational logic sees each
// cycle; it performs no power accounting itself.
func (ch *Chain) Run(patterns []Pattern, cfg ShiftConfig, hooks Hooks) error {
	c := ch.c
	if err := cfg.Validate(c); err != nil {
		return err
	}
	for pi, p := range patterns {
		if len(p.PI) != len(c.PIs) || len(p.State) != c.NumFFs() {
			return fmt.Errorf("scan: pattern %d sized %d/%d, want %d/%d",
				pi, len(p.PI), len(p.State), len(c.PIs), c.NumFFs())
		}
	}
	L := ch.Length()
	chain := make([]bool, L) // chain[p] = content at position p
	piVals, ppiVals, varPI, varFF := cfg.shiftInputs()
	capVals := make([]bool, c.NumFFs())

	emit := func(patPI []bool) {
		if hooks.ShiftCycle == nil {
			return
		}
		for _, i := range varPI {
			piVals[i] = patPI[i]
		}
		for _, f := range varFF {
			ppiVals[f] = chain[ch.pos[f]]
		}
		hooks.ShiftCycle(piVals, ppiVals)
	}

	shiftOne := func(inBit bool) {
		for p := L - 1; p > 0; p-- {
			chain[p] = chain[p-1]
		}
		if L > 0 {
			chain[0] = inBit
		}
	}

	for _, pat := range patterns {
		if hooks.Stop != nil {
			if err := hooks.Stop(); err != nil {
				return err
			}
		}
		// Shift in the new state (old content — previous response —
		// shifts out). The bit destined for the flop at chain position
		// L-1-t enters at shift t.
		for t := 0; t < L; t++ {
			shiftOne(pat.State[ch.Order[L-1-t]])
			emit(pat.PI)
		}
		// Capture.
		if hooks.Capture != nil {
			for f := range capVals {
				capVals[f] = chain[ch.pos[f]]
			}
			resp := hooks.Capture(pat.PI, capVals)
			if len(resp) != c.NumFFs() {
				return fmt.Errorf("scan: capture hook returned %d bits for %d flops",
					len(resp), c.NumFFs())
			}
			for f, v := range resp {
				chain[ch.pos[f]] = v
			}
		}
	}
	// Flush the last response; the tester keeps the last pattern's PI
	// values applied while zeros fill the chain.
	if len(patterns) > 0 {
		lastPI := patterns[len(patterns)-1].PI
		for t := 0; t < L; t++ {
			shiftOne(false)
			emit(lastPI)
		}
	}
	return nil
}

// LoadedState returns what each flop holds after shifting in pattern p:
// by construction, exactly p.State. Exposed for tests documenting the
// stream-order convention.
func (ch *Chain) LoadedState(p Pattern) []bool {
	out := make([]bool, ch.Length())
	copy(out, p.State)
	return out
}
