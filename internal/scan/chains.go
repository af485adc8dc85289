package scan

import (
	"fmt"

	"repro/internal/netlist"
)

// Runner abstracts single- and multi-chain scan test application; both
// Chain and Chains implement it, and the power measurement accepts either.
type Runner interface {
	Circuit() *netlist.Circuit
	Run(patterns []Pattern, cfg ShiftConfig, hooks Hooks) error
}

var (
	_ Runner = (*Chain)(nil)
	_ Runner = (*Chains)(nil)
)

// Chains is a multi-chain scan configuration: the flops are partitioned
// into n chains that shift simultaneously, cutting test time by roughly
// n× at the cost of n scan-in/scan-out pins. Shorter chains pad with
// leading zero bits so every chain finishes loading on the same cycle.
type Chains struct {
	c *netlist.Circuit
	// Groups[k][p] is the flop index at position p of chain k (position 0
	// nearest that chain's scan input).
	Groups [][]int
	chain  []int // per flop: owning chain
	pos    []int // per flop: position in its chain
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
	chain := make([]int, c.NumFFs())
	pos := make([]int, c.NumFFs())
	for i := range chain {
		chain[i] = -1
	}
	for k, g := range groups {
		for p, f := range g {
			if f < 0 || f >= c.NumFFs() || chain[f] != -1 {
				return nil, fmt.Errorf("scan: groups are not a partition (flop %d)", f)
			}
			chain[f] = k
			pos[f] = p
		}
	}
	for f, k := range chain {
		if k == -1 {
			return nil, fmt.Errorf("scan: flop %d missing from every chain", f)
		}
	}
	return &Chains{c: c, Groups: groups, chain: chain, pos: pos}, nil
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

// Run applies the patterns through all chains simultaneously; semantics
// match Chain.Run (shift in while the previous response shifts out, one
// capture per pattern, final zero-fill flush), with MaxLength() shift
// cycles per pattern.
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
	// content[k][p] = bit at position p of chain k.
	content := make([][]bool, cs.NumChains())
	for k := range content {
		content[k] = make([]bool, len(cs.Groups[k]))
	}
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
			ppiVals[f] = content[cs.chain[f]][cs.pos[f]]
		}
		hooks.ShiftCycle(piVals, ppiVals)
	}
	shiftOne := func(inBits []bool) {
		for k := range content {
			ck := content[k]
			for p := len(ck) - 1; p > 0; p-- {
				ck[p] = ck[p-1]
			}
			if len(ck) > 0 {
				ck[0] = inBits[k]
			}
		}
	}
	inBits := make([]bool, cs.NumChains())
	for _, pat := range patterns {
		if hooks.Stop != nil {
			if err := hooks.Stop(); err != nil {
				return err
			}
		}
		for t := 0; t < L; t++ {
			for k, g := range cs.Groups {
				lk := len(g)
				lead := L - lk // padding cycles before chain k's data starts
				if t < lead {
					inBits[k] = false
				} else {
					inBits[k] = pat.State[g[lk-1-(t-lead)]]
				}
			}
			shiftOne(inBits)
			emit(pat.PI)
		}
		if hooks.Capture != nil {
			for f := range capVals {
				capVals[f] = content[cs.chain[f]][cs.pos[f]]
			}
			resp := hooks.Capture(pat.PI, capVals)
			if len(resp) != c.NumFFs() {
				return fmt.Errorf("scan: capture hook returned %d bits for %d flops",
					len(resp), c.NumFFs())
			}
			for f, v := range resp {
				content[cs.chain[f]][cs.pos[f]] = v
			}
		}
	}
	if len(patterns) > 0 {
		lastPI := patterns[len(patterns)-1].PI
		for k := range inBits {
			inBits[k] = false
		}
		for t := 0; t < L; t++ {
			shiftOne(inBits)
			emit(lastPI)
		}
	}
	return nil
}
