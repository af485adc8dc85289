package atpg

import (
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// FaultSim is a serial, event-driven single-stuck-at fault simulator.
// After SetPattern fixes the good-circuit response, Detects answers
// whether a given fault is observable at a primary output or a flip-flop
// data input (full-scan observability) under that pattern.
type FaultSim struct {
	c    *netlist.Circuit
	s    *sim.Simulator
	good []bool

	// Copy-on-write faulty values, valid when stamp[net] == epoch.
	faulty []bool
	stamp  []uint32
	gstamp []uint32 // per-gate queued marker
	epoch  uint32

	buckets [][]netlist.GateID // worklist indexed by gate level
	inBuf   []bool
}

// NewFaultSim builds a simulator for the frozen circuit c.
func NewFaultSim(c *netlist.Circuit) *FaultSim {
	return &FaultSim{
		c:       c,
		s:       sim.New(c),
		faulty:  make([]bool, c.NumNets()),
		stamp:   make([]uint32, c.NumNets()),
		gstamp:  make([]uint32, c.NumGates()),
		buckets: make([][]netlist.GateID, c.Depth()+1),
		inBuf:   make([]bool, 0, 8),
	}
}

// SetPattern simulates the good circuit for the pattern (pi in PI order,
// ppi in FF order).
func (fs *FaultSim) SetPattern(pi, ppi []bool) {
	fs.good = fs.s.Eval(pi, ppi)
}

func (fs *FaultSim) val(n netlist.NetID) bool {
	if fs.stamp[n] == fs.epoch {
		return fs.faulty[n]
	}
	return fs.good[n]
}

func (fs *FaultSim) observed(n netlist.NetID) bool {
	net := &fs.c.Nets[n]
	return net.IsPO() || len(net.FanoutFF) > 0
}

// Detects reports whether fault f is detected by the current pattern.
func (fs *FaultSim) Detects(f Fault) bool {
	if fs.good == nil {
		panic("atpg: Detects before SetPattern")
	}
	if fs.good[f.Net] == f.Stuck {
		return false // not activated
	}
	fs.epoch++
	if fs.epoch == 0 { // wrapped: clear stamps
		for i := range fs.stamp {
			fs.stamp[i] = 0
		}
		for i := range fs.gstamp {
			fs.gstamp[i] = 0
		}
		fs.epoch = 1
	}
	c := fs.c
	fs.faulty[f.Net] = f.Stuck
	fs.stamp[f.Net] = fs.epoch
	if fs.observed(f.Net) {
		return true
	}
	for i := range fs.buckets {
		fs.buckets[i] = fs.buckets[i][:0]
	}
	schedule := func(n netlist.NetID) {
		for _, g := range c.Nets[n].Fanout {
			if fs.gstamp[g] != fs.epoch {
				fs.gstamp[g] = fs.epoch
				lvl := c.Level(g)
				fs.buckets[lvl] = append(fs.buckets[lvl], g)
			}
		}
	}
	schedule(f.Net)
	for lvl := 0; lvl < len(fs.buckets); lvl++ {
		for qi := 0; qi < len(fs.buckets[lvl]); qi++ {
			gi := fs.buckets[lvl][qi]
			g := &c.Gates[gi]
			if g.Output == f.Net {
				continue // the fault site stays forced
			}
			fs.inBuf = fs.inBuf[:0]
			for _, in := range g.Inputs {
				fs.inBuf = append(fs.inBuf, fs.val(in))
			}
			nv := logic.EvalBool(g.Type, fs.inBuf)
			if nv == fs.val(g.Output) {
				continue // difference died here
			}
			fs.faulty[g.Output] = nv
			fs.stamp[g.Output] = fs.epoch
			if fs.observed(g.Output) {
				return true
			}
			schedule(g.Output)
		}
	}
	return false
}
