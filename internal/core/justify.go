package core

import (
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/probe"
)

// justify tries to force net target to value want by assigning controlled
// inputs only, with non-multiplexed pseudo-inputs pinned at X. It is the
// paper's Justify(): a PODEM-like branch-and-bound whose Backtrace input
// choices are directed by leakage observability. On success the new
// assignments stay committed; on failure every assignment made here is
// rolled back.
func (f *finder) justify(target netlist.NetID, want logic.Value) bool {
	type decision struct {
		net     netlist.NetID
		flipped bool
	}
	var stack []decision
	var touched []netlist.NetID
	backtracks := 0
	done := func(ok bool) bool {
		f.probe.Emit(probe.Event{Kind: probe.Justify, OK: ok, Backtracks: backtracks})
		return ok
	}
	rollback := func() {
		for _, n := range touched {
			f.assign[n] = logic.X
		}
		f.imply()
	}
	for {
		if f.cancelled() {
			rollback()
			return done(false)
		}
		f.imply()
		switch f.val[target] {
		case want:
			return done(true)
		case logic.X:
			n, v, ok := f.backtrace(target, want)
			if ok {
				stack = append(stack, decision{net: n})
				touched = append(touched, n)
				f.assign[n] = v
				continue
			}
			// No controlled X-path: conflict.
		}
		// Conflict (wrong binary value or dead-ended backtrace): flip the
		// most recent unflipped decision.
		flipped := false
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if !top.flipped {
				top.flipped = true
				f.assign[top.net] = f.assign[top.net].Not()
				flipped = true
				break
			}
			f.assign[top.net] = logic.X
			stack = stack[:len(stack)-1]
		}
		if !flipped {
			rollback()
			return done(false)
		}
		backtracks++
		if backtracks > f.opts.JustifyBacktracks {
			rollback()
			return done(false)
		}
	}
}

// backtrace maps the objective (target=want) to an assignable controlled
// input by walking X-paths toward the inputs. At each gate the next input
// is chosen among the don't-care inputs, preferring (under the
// observability directive) the line whose assignment to the propagated
// value is cheapest for leakage. Free (non-multiplexed) pseudo-inputs are
// dead ends.
func (f *finder) backtrace(target netlist.NetID, want logic.Value) (netlist.NetID, logic.Value, bool) {
	c := f.c
	n, v := target, want
	for {
		if f.controlled[n] {
			if f.assign[n] != logic.X {
				return 0, 0, false // already decided; cannot re-decide here
			}
			return n, v, true
		}
		if f.free[n] {
			return 0, 0, false
		}
		d := c.Nets[n].Driver
		if d == netlist.InvalidGate {
			return 0, 0, false
		}
		g := &c.Gates[d]
		if g.Type.Inverting() {
			v = v.Not()
		}
		// Candidate next hops: X-valued, non-free inputs.
		f.btCands = f.btCands[:0]
		for _, in := range g.Inputs {
			if f.val[in] == logic.X && !f.free[in] {
				f.btCands = append(f.btCands, in)
			}
		}
		if len(f.btCands) == 0 {
			return 0, 0, false
		}
		next := f.btCands[0]
		if f.ob != nil && len(f.btCands) > 1 && v.IsBinary() {
			next = f.btCands[f.ob.PickForValue(f.btCands, v == logic.One)]
		}
		n = next
	}
}
