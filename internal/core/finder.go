package core

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/probe"
)

// finder carries the state of FindControlledInputPattern: the controlled
// inputs (primary inputs plus multiplexed pseudo-inputs), the current
// partial assignment, the implied three-valued circuit state, and the
// transition classification (the TNS/TGS machinery of the paper).
type finder struct {
	c    *netlist.Circuit
	opts *Options
	ob   *obs.Observability // nil when not observability-directed
	rng  *rand.Rand

	loads      []float64     // per net, for "largest output capacitance"
	controlled []bool        // per net
	free       []bool        // per net: non-multiplexed pseudo-input
	assign     []logic.Value // per net: committed decision (controlled only)
	val        []logic.Value // implied state, X where free-dependent/unassigned
	trans      []bool        // per net: carries scan-chain transitions
	failed     []bool        // per gate: blocking attempted and failed
	pending    []netlist.GateID
	inBuf      []logic.Value
	btCands    []netlist.NetID

	blockedGates int
	failedGates  int

	// ctx, when non-nil, lets the search be cancelled between decisions;
	// err records the context error that stopped it.
	ctx context.Context
	err error
	// probe is ctx's probe scope, resolved once for the hot loops.
	probe *probe.Scope
}

// cancelled checks the optional context and latches its error.
func (f *finder) cancelled() bool {
	if f.err != nil {
		return true
	}
	if f.ctx == nil {
		return false
	}
	if err := f.ctx.Err(); err != nil {
		f.err = err
		return true
	}
	return false
}

func newFinder(c *netlist.Circuit, opts *Options, muxable []bool,
	ob *obs.Observability, rng *rand.Rand) *finder {

	f := &finder{
		c:          c,
		opts:       opts,
		ob:         ob,
		rng:        rng,
		loads:      opts.Cap.NetLoads(c),
		controlled: make([]bool, c.NumNets()),
		free:       make([]bool, c.NumNets()),
		assign:     make([]logic.Value, c.NumNets()),
		val:        make([]logic.Value, c.NumNets()),
		trans:      make([]bool, c.NumNets()),
		failed:     make([]bool, c.NumGates()),
		inBuf:      make([]logic.Value, 0, 8),
	}
	for _, pi := range c.PIs {
		f.controlled[pi] = true
	}
	for fi, ff := range c.FFs {
		if muxable != nil && muxable[fi] {
			f.controlled[ff.Q] = true
		} else {
			f.free[ff.Q] = true
		}
	}
	return f
}

// imply recomputes the implied three-valued state from the committed
// assignment: controlled inputs carry their assigned value (X if
// undecided), non-multiplexed pseudo-inputs are always X (they toggle
// with the chain).
func (f *finder) imply() {
	c := f.c
	for _, n := range c.CombInputs() {
		if f.controlled[n] {
			f.val[n] = f.assign[n]
		} else {
			f.val[n] = logic.X
		}
	}
	for _, gi := range c.Topo() {
		g := &c.Gates[gi]
		f.inBuf = f.inBuf[:0]
		for _, in := range g.Inputs {
			f.inBuf = append(f.inBuf, f.val[in])
		}
		f.val[g.Output] = logic.Eval(g.Type, f.inBuf)
	}
}

// classify recomputes the transition flags and the pending set (TGS): in
// topological order each gate with a transitioning input is blocked (some
// input holds the controlling value), pending (a don't-care side input
// could still be set to the controlling value), or failed/propagating.
func (f *finder) classify() {
	c := f.c
	f.pending = f.pending[:0]
	for n := range f.trans {
		f.trans[n] = f.free[n]
	}
	for _, gi := range c.Topo() {
		g := &c.Gates[gi]
		anyTrans := false
		for _, in := range g.Inputs {
			if f.trans[in] {
				anyTrans = true
				break
			}
		}
		out := g.Output
		if !anyTrans {
			f.trans[out] = false
			continue
		}
		if !g.Type.HasControllingValue() {
			// NOT, BUF, XOR, XNOR, MUX2: transitions always pass
			// (the paper's FANOUT/NOT/XOR/XNOR rule).
			f.trans[out] = true
			continue
		}
		cv := g.Type.ControllingValue()
		blocked := false
		for _, in := range g.Inputs {
			if f.val[in] == cv {
				blocked = true
				break
			}
		}
		if blocked {
			f.trans[out] = false
			continue
		}
		if f.failed[gi] {
			f.trans[out] = true
			continue
		}
		if len(f.blockCandidates(gi)) == 0 {
			// No side input can take the controlling value: transitions
			// pass on (the paper's "add all fan-out nodes of mc_tg to
			// TNS" after exhausting the don't-care inputs).
			f.failed[gi] = true
			f.failedGates++
			f.trans[out] = true
			continue
		}
		f.pending = append(f.pending, gi)
		f.trans[out] = false
	}
}

// blockCandidates returns the side inputs of gate gi that currently carry
// a don't-care and are not themselves transition-carrying — exactly the
// inputs a controlling value could be justified on.
func (f *finder) blockCandidates(gi netlist.GateID) []netlist.NetID {
	g := &f.c.Gates[gi]
	var out []netlist.NetID
	for _, in := range g.Inputs {
		if f.val[in] == logic.X && !f.trans[in] {
			out = append(out, in)
		}
	}
	return out
}

// orderCandidates sorts candidate nets by the leakage-observability
// directive: when placing a 1 prefer minimum observability, when placing
// a 0 prefer maximum (so the blocking value lands where it also cheapens
// leakage). Without the directive the structural order is kept (the
// plain C-algorithm behaviour).
func (f *finder) orderCandidates(cands []netlist.NetID, v logic.Value) {
	if f.ob == nil {
		return
	}
	one := v == logic.One
	sort.SliceStable(cands, func(i, j int) bool {
		oi, oj := f.ob.At(cands[i]), f.ob.At(cands[j])
		if one {
			return oi < oj
		}
		return oi > oj
	})
}

// run executes the main FindControlledInputPattern loop: repeatedly take
// the pending transition gate with the largest output capacitance and try
// to justify its controlling value on one of its don't-care inputs.
func (f *finder) run() {
	f.imply()
	f.classify()
	for len(f.pending) > 0 {
		if f.cancelled() {
			return
		}
		// mc_tg: largest output capacitance.
		best := 0
		for i := 1; i < len(f.pending); i++ {
			if f.loads[f.c.Gates[f.pending[i]].Output] >
				f.loads[f.c.Gates[f.pending[best]].Output] {
				best = i
			}
		}
		gi := f.pending[best]
		g := &f.c.Gates[gi]
		cv := g.Type.ControllingValue()
		cands := f.blockCandidates(gi)
		f.orderCandidates(cands, cv)
		blocked := false
		for _, cand := range cands {
			if f.justify(cand, cv) {
				blocked = true
				break
			}
		}
		if blocked {
			f.blockedGates++
		} else {
			f.failed[gi] = true
			f.failedGates++
		}
		f.imply()
		f.classify()
	}
}

// fill assigns every still-undecided controlled input by random
// minimum-leakage search ([14]): FillTrials random completions are
// simulated and the cheapest kept. With the observability directive the
// first candidate is the per-input preferred-value vector, so the greedy
// choice competes against the random samples. The search runs on the
// packed kernel, fillPacked.
func (f *finder) fill() (filled int) {
	c := f.c
	var unassigned []netlist.NetID
	for _, n := range c.CombInputs() {
		if f.controlled[n] && f.assign[n] == logic.X {
			unassigned = append(unassigned, n)
		}
	}
	if len(unassigned) == 0 {
		f.imply()
		return 0
	}
	trials := f.opts.FillTrials
	if trials < 1 {
		trials = 1
	}
	best := f.fillPacked(unassigned, trials)
	for i, n := range unassigned {
		f.assign[n] = best[i]
	}
	f.imply()
	return len(unassigned)
}

// transitionNetCount counts nets still carrying transitions.
func (f *finder) transitionNetCount() int {
	n := 0
	for _, t := range f.trans {
		if t {
			n++
		}
	}
	return n
}
