package scan

import (
	"fmt"

	"repro/internal/netlist"
)

// Chains is the scan configuration of a circuit: its flops partitioned
// into chains that shift simultaneously. One chain through every flop is
// plain full scan; n chains cut test time by roughly n× at the cost of n
// scan-in/scan-out pins. Shorter chains pad with leading zero bits so
// every chain finishes loading on the same cycle.
type Chains struct {
	c *netlist.Circuit
	// Groups[k][p] is the flop index at position p of chain k (position 0
	// nearest that chain's scan input, the last position driving its scan
	// output).
	Groups [][]int
	// Run keeps every chain's contents in one flat array, chain k in
	// [seg[k], seg[k+1]) in position order; at[f] is flop f's index there.
	seg []int
	at  []int
}

// New threads one chain through the flops in netlist order.
func New(c *netlist.Circuit) *Chains {
	order := make([]int, c.NumFFs())
	for i := range order {
		order[i] = i
	}
	cs, _ := NewChainsWithGroups(c, [][]int{order})
	return cs
}

// NewWithOrder threads one chain in the given FF order (a permutation of
// 0..NumFFs-1).
func NewWithOrder(c *netlist.Circuit, order []int) (*Chains, error) {
	if len(order) != c.NumFFs() {
		return nil, fmt.Errorf("scan: order has %d entries for %d flops", len(order), c.NumFFs())
	}
	return NewChainsWithGroups(c, [][]int{append([]int(nil), order...)})
}

// NewChains partitions the flops round-robin into n balanced chains.
func NewChains(c *netlist.Circuit, n int) (*Chains, error) {
	if n < 1 {
		return nil, fmt.Errorf("scan: need at least one chain, got %d", n)
	}
	if n > c.NumFFs() && c.NumFFs() > 0 {
		n = c.NumFFs()
	}
	groups := make([][]int, n)
	for f := 0; f < c.NumFFs(); f++ {
		k := f % n
		groups[k] = append(groups[k], f)
	}
	return NewChainsWithGroups(c, groups)
}

// NewChainsWithGroups builds chains from an explicit partition; every
// flop must appear exactly once across the groups.
func NewChainsWithGroups(c *netlist.Circuit, groups [][]int) (*Chains, error) {
	seg := make([]int, len(groups)+1)
	at := make([]int, c.NumFFs())
	for i := range at {
		at[i] = -1
	}
	for k, g := range groups {
		seg[k+1] = seg[k] + len(g)
		for p, f := range g {
			if f < 0 || f >= c.NumFFs() || at[f] != -1 {
				return nil, fmt.Errorf("scan: groups are not a partition (flop %d)", f)
			}
			at[f] = seg[k] + p
		}
	}
	for f, i := range at {
		if i == -1 {
			return nil, fmt.Errorf("scan: flop %d missing from every chain", f)
		}
	}
	return &Chains{c: c, Groups: groups, seg: seg, at: at}, nil
}

// Circuit returns the underlying circuit.
func (cs *Chains) Circuit() *netlist.Circuit { return cs.c }

// NumChains returns the chain count.
func (cs *Chains) NumChains() int { return len(cs.Groups) }

// MaxLength returns the longest chain length — the shift cycles needed
// per pattern.
func (cs *Chains) MaxLength() int {
	m := 0
	for _, g := range cs.Groups {
		if len(g) > m {
			m = len(g)
		}
	}
	return m
}

// Run applies the patterns through all chains simultaneously: for each
// pattern, MaxLength() shift cycles (during which the previous response
// shifts out as the new state shifts in) followed by one capture; after
// the last pattern the final response is flushed out with zero fill. The
// initial chain content is all zeros.
//
// Run reports, via hooks, exactly what the combinational logic sees each
// cycle; it performs no power accounting itself.
func (cs *Chains) Run(patterns []Pattern, cfg ShiftConfig, hooks Hooks) error {
	c := cs.c
	if err := cfg.Validate(c); err != nil {
		return err
	}
	for pi, p := range patterns {
		if len(p.PI) != len(c.PIs) || len(p.State) != c.NumFFs() {
			return fmt.Errorf("scan: pattern %d sized %d/%d, want %d/%d",
				pi, len(p.PI), len(p.State), len(c.PIs), c.NumFFs())
		}
	}
	L := cs.MaxLength()
	content := make([]bool, c.NumFFs())
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
			ppiVals[f] = content[cs.at[f]]
		}
		hooks.ShiftCycle(piVals, ppiVals)
	}
	// shift clocks every chain once at cycle t of a load. The bit for
	// chain position j enters at t = L-1-j, so a chain shorter than L
	// takes zeros until its last position's bit is due; t = -1 takes zeros
	// everywhere (the flush).
	shift := func(state []bool, t int) {
		for k, g := range cs.Groups {
			s := content[cs.seg[k]:cs.seg[k+1]]
			if len(s) == 0 {
				continue
			}
			copy(s[1:], s)
			s[0] = false
			if j := L - 1 - t; j < len(g) {
				s[0] = state[g[j]]
			}
		}
	}

	for _, pat := range patterns {
		if hooks.Stop != nil {
			if err := hooks.Stop(); err != nil {
				return err
			}
		}
		for t := 0; t < L; t++ {
			shift(pat.State, t)
			emit(pat.PI)
		}
		if hooks.Capture != nil {
			for f := range capVals {
				capVals[f] = content[cs.at[f]]
			}
			resp := hooks.Capture(pat.PI, capVals)
			if len(resp) != c.NumFFs() {
				return fmt.Errorf("scan: capture hook returned %d bits for %d flops",
					len(resp), c.NumFFs())
			}
			for f, v := range resp {
				content[cs.at[f]] = v
			}
		}
	}
	// Flush the last response; the tester keeps the last pattern's PI
	// values applied while zeros fill the chains.
	if len(patterns) > 0 {
		lastPI := patterns[len(patterns)-1].PI
		for t := 0; t < L; t++ {
			shift(nil, -1)
			emit(lastPI)
		}
	}
	return nil
}
