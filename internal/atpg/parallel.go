package atpg

import (
	"fmt"
	"math/bits"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sim"
)

// FaultSimW is a bit-parallel stuck-at fault simulator (the classic
// PPSFP technique) over a configurable lane count: each net carries
// lanes/64 words holding its value under up to `lanes` patterns at once.
// The good-circuit pass runs the compiled levelized program (sim.Compile)
// directly over the flat per-net state — the same instruction stream the
// packed measure, observability, and fill kernels execute — so loading a
// 256-pattern batch costs one wide compiled evaluation instead of four
// interpreted topological walks.
//
// The faulty passes are deliberately NOT width-parallel: event-driven
// simulation does the same total word operations at any lane width (a
// four-word event is four single-word events), so widening buys nothing
// there and costs plenty — a fault detected by the first 64 patterns
// would still drag its whole 256-lane cone through every event. Instead
// each fault is simulated one 64-lane word at a time, in ascending word
// order, stopping as soon as the caller's detection quota is met. The
// per-word pass keeps the faulty state as a repaired copy of the good
// state (equal outside a pass, patched back afterward via a touched
// list), so the inner loop reads operands with one unconditional load
// instead of a stamp-check branch per fanin, and walks flattened
// structure arrays (fanin/fanout CSR, levels, observability flags)
// instead of the pointer-rich netlist structs.
//
// Detection masks are per-lane exact, and DetectAllMask credits lowest
// lanes first — ascending word, then ascending bit — which is exactly the
// order the early-exit word walk discovers them, so results are
// independent of the width. Two widths exist for semantic reasons, not
// speed: Generate's random phase and deterministic drop buffer define
// their rng stream and stall accounting per 64-pattern batch and run at
// sim.PackedLanes, while compaction and coverage audits run at
// sim.WideLanes.
type FaultSimW struct {
	c    *netlist.Circuit
	prog *sim.Program
	ww   int // words per net (lane count / 64)
	n    int // number of valid pattern lanes (1..64*ww)

	good   []uint64 // NumNets()*ww; net n's words at [n*ww : (n+1)*ww]
	faulty []uint64 // == good outside a pass; patched back via touched
	gstamp []uint32 // per-gate scheduled-this-pass stamp
	epoch  uint32

	// Flattened structure arrays: everything the event loop touches per
	// gate, without loading netlist.Gate or netlist.Net structs.
	gop      []uint8 // fused (type, arity) opcode, see fop* constants
	ginStart []int32 // gate g's fanin words at gins[ginStart[g]:ginStart[g+1]]
	gins     []int32 // fanin net IDs premultiplied by ww (flat word indices)
	gout     []int32 // output net ID premultiplied by ww
	goutNet  []netlist.NetID
	glevel   []int32
	fanStart []int32 // net n's fanout gates at fanGates[fanStart[n]:fanStart[n+1]]
	fanGates []netlist.GateID
	obsFlag  []uint8 // 1 if the net is a PO or feeds a flop D input
	piGrp    []int32 // PI i's net ID premultiplied by ww
	ffGrp    []int32 // flop f's Q net ID premultiplied by ww

	buckets [][]netlist.GateID
	lvlMask []uint64 // occupancy bitmap over buckets: bit l set iff level l is non-empty
	touched []int32  // flat word indices diverged this pass, for repair
	lanes   []uint64 // ww, valid-lane mask of the loaded batch
	detBuf  []uint64 // ww, DetectMask result
	credBuf []uint64 // ww, DetectAllMask result
}

// NewFaultSimW builds a parallel simulator for the frozen circuit c with
// the given lane count, sim.PackedLanes or sim.WideLanes. It panics —
// naming the offender — on an unfrozen circuit or an unsupported width.
func NewFaultSimW(c *netlist.Circuit, lanes int) *FaultSimW {
	if !c.Frozen() {
		panic(fmt.Sprintf("atpg: FaultSimW needs a frozen circuit, got unfrozen %q", c.Name))
	}
	if lanes != sim.PackedLanes && lanes != sim.WideLanes {
		panic(fmt.Sprintf("atpg: invalid lane width %d (want %d or %d)", lanes, sim.PackedLanes, sim.WideLanes))
	}
	ww := lanes / 64
	nNets, nGates := c.NumNets(), c.NumGates()

	fs := &FaultSimW{
		c:        c,
		prog:     sim.Compile(c),
		ww:       ww,
		good:     make([]uint64, nNets*ww),
		faulty:   make([]uint64, nNets*ww),
		gstamp:   make([]uint32, nGates),
		gop:      make([]uint8, nGates),
		ginStart: make([]int32, nGates+1),
		gout:     make([]int32, nGates),
		goutNet:  make([]netlist.NetID, nGates),
		glevel:   make([]int32, nGates),
		fanStart: make([]int32, nNets+1),
		obsFlag:  make([]uint8, nNets),
		buckets:  make([][]netlist.GateID, c.Depth()+1),
		lvlMask:  make([]uint64, (c.Depth()+64)/64),
		lanes:    make([]uint64, ww),
		detBuf:   make([]uint64, ww),
		credBuf:  make([]uint64, ww),
	}
	nIns := 0
	for gi := range c.Gates {
		nIns += len(c.Gates[gi].Inputs)
	}
	fs.gins = make([]int32, 0, nIns)
	for gi := range c.Gates {
		g := &c.Gates[gi]
		fs.gop[gi] = fuseOp(g.Type, len(g.Inputs))
		for _, in := range g.Inputs {
			fs.gins = append(fs.gins, int32(in)*int32(ww))
		}
		fs.ginStart[gi+1] = int32(len(fs.gins))
		fs.gout[gi] = int32(g.Output) * int32(ww)
		fs.goutNet[gi] = g.Output
		fs.glevel[gi] = int32(c.Level(netlist.GateID(gi)))
	}
	nFan := 0
	for ni := range c.Nets {
		nFan += len(c.Nets[ni].Fanout)
	}
	fs.fanGates = make([]netlist.GateID, 0, nFan)
	for ni := range c.Nets {
		net := &c.Nets[ni]
		fs.fanGates = append(fs.fanGates, net.Fanout...)
		fs.fanStart[ni+1] = int32(len(fs.fanGates))
		if net.IsPO() || len(net.FanoutFF) > 0 {
			fs.obsFlag[ni] = 1
		}
	}
	fs.piGrp = make([]int32, len(c.PIs))
	for i, piNet := range c.PIs {
		fs.piGrp[i] = int32(piNet) * int32(ww)
	}
	fs.ffGrp = make([]int32, len(c.FFs))
	for f, ff := range c.FFs {
		fs.ffGrp[f] = int32(ff.Q) * int32(ww)
	}
	return fs
}

// LaneWidth returns the simulator's batch capacity in patterns.
func (fs *FaultSimW) LaneWidth() int { return fs.ww * 64 }

// SetPatterns loads up to LaneWidth() patterns (lane i = patterns[i]) and
// runs the good-circuit simulation.
func (fs *FaultSimW) SetPatterns(patterns []scan.Pattern) {
	if len(patterns) == 0 || len(patterns) > fs.ww*64 {
		panic(fmt.Sprintf("atpg: SetPatterns needs 1..%d patterns, got %d", fs.ww*64, len(patterns)))
	}
	ww := fs.ww
	fs.n = len(patterns)
	for k := 0; k < ww; k++ {
		rem := fs.n - k*64
		switch {
		case rem >= 64:
			fs.lanes[k] = ^uint64(0)
		case rem <= 0:
			fs.lanes[k] = 0
		default:
			fs.lanes[k] = 1<<uint(rem) - 1
		}
	}
	for _, grp := range fs.piGrp {
		for k := 0; k < ww; k++ {
			fs.good[int(grp)+k] = 0
		}
	}
	for _, grp := range fs.ffGrp {
		for k := 0; k < ww; k++ {
			fs.good[int(grp)+k] = 0
		}
	}
	// Pack pattern-major: each pattern's PI/State slices are read
	// sequentially (one cache-friendly walk per lane) instead of chasing
	// lane l's bit through all the pattern structs once per input.
	for lane, p := range patterns {
		wk, bit := lane>>6, uint64(1)<<uint(lane&63)
		for i, v := range p.PI {
			if v {
				fs.good[int(fs.piGrp[i])+wk] |= bit
			}
		}
		for f, v := range p.State {
			if v {
				fs.good[int(fs.ffGrp[f])+wk] |= bit
			}
		}
	}
	// The good-circuit values come straight from the compiled levelized
	// program over the flat state — the same instruction stream the
	// packed measure/obs/fill kernels execute.
	fs.prog.Run(fs.good, ww)
	// Establish the repair invariant: faulty mirrors good between passes.
	copy(fs.faulty, fs.good)
}

// detectWord runs one 64-lane faulty pass for fault f over lane word k
// and returns the word's detection mask. It assumes (and restores) the
// repair invariant faulty == good.
func (fs *FaultSimW) detectWord(f Fault, stuck uint64, k int) uint64 {
	valid := fs.lanes[k]
	fi := int(f.Net)*fs.ww + k
	good, faulty := fs.good, fs.faulty
	act := (good[fi] ^ stuck) & valid
	if act == 0 {
		return 0
	}
	fs.epoch++
	if fs.epoch == 0 {
		for i := range fs.gstamp {
			fs.gstamp[i] = 0
		}
		fs.epoch = 1
	}
	epoch := fs.epoch
	faulty[fi] = stuck
	fs.touched = append(fs.touched[:0], int32(fi))
	det := uint64(0)
	if fs.obsFlag[f.Net] != 0 {
		det = act
	}
	// Buckets are empty between passes (each level is drained and reset as
	// it is processed), and a gate's fanout gates sit at strictly higher
	// levels, so the walk can pop occupied levels in ascending order off
	// the lvlMask bitmap — empty levels inside a deep, narrow cone cost
	// nothing — and never revisits or mutates the level it is draining.
	for fo := fs.fanStart[f.Net]; fo < fs.fanStart[f.Net+1]; fo++ {
		g := fs.fanGates[fo]
		fs.gstamp[g] = epoch
		lg := fs.glevel[g]
		fs.lvlMask[lg>>6] |= 1 << (uint(lg) & 63)
		fs.buckets[lg] = append(fs.buckets[lg], g)
	}
	gins, ginStart := fs.gins, fs.ginStart
	for wi := 0; wi < len(fs.lvlMask); wi++ {
		for fs.lvlMask[wi] != 0 {
			b := bits.TrailingZeros64(fs.lvlMask[wi])
			fs.lvlMask[wi] &^= 1 << uint(b)
			lvl := wi<<6 | b
			for _, gi := range fs.buckets[lvl] {
				onet := fs.goutNet[gi]
				if onet == f.Net {
					continue
				}
				s, e := int(ginStart[gi]), int(ginStart[gi+1])
				w := faulty[int(gins[s])+k]
				switch fs.gop[gi] {
				case fopBuf:
				case fopNot:
					w = ^w
				case fopAnd2:
					w &= faulty[int(gins[s+1])+k]
				case fopNand2:
					w = ^(w & faulty[int(gins[s+1])+k])
				case fopOr2:
					w |= faulty[int(gins[s+1])+k]
				case fopNor2:
					w = ^(w | faulty[int(gins[s+1])+k])
				case fopXor2:
					w ^= faulty[int(gins[s+1])+k]
				case fopXnor2:
					w = ^(w ^ faulty[int(gins[s+1])+k])
				case fopAndN:
					for j := s + 1; j < e; j++ {
						w &= faulty[int(gins[j])+k]
					}
				case fopNandN:
					for j := s + 1; j < e; j++ {
						w &= faulty[int(gins[j])+k]
					}
					w = ^w
				case fopOrN:
					for j := s + 1; j < e; j++ {
						w |= faulty[int(gins[j])+k]
					}
				case fopNorN:
					for j := s + 1; j < e; j++ {
						w |= faulty[int(gins[j])+k]
					}
					w = ^w
				case fopXorN:
					for j := s + 1; j < e; j++ {
						w ^= faulty[int(gins[j])+k]
					}
				case fopXnorN:
					for j := s + 1; j < e; j++ {
						w ^= faulty[int(gins[j])+k]
					}
					w = ^w
				default: // fopMux2
					d1, sel := faulty[int(gins[s+1])+k], faulty[int(gins[s+2])+k]
					w = (w &^ sel) | (d1 & sel)
				}
				oi := int(fs.gout[gi]) + k
				if (w^faulty[oi])&valid == 0 {
					continue
				}
				// Each gate is scheduled at most once per pass, so this is the
				// output's first divergence from good — record it for repair.
				fs.touched = append(fs.touched, int32(oi))
				faulty[oi] = w
				if fs.obsFlag[onet] != 0 {
					det |= (w ^ good[oi]) & valid
				}
				for fo := fs.fanStart[onet]; fo < fs.fanStart[onet+1]; fo++ {
					g := fs.fanGates[fo]
					if fs.gstamp[g] != epoch {
						fs.gstamp[g] = epoch
						lg := fs.glevel[g]
						fs.lvlMask[lg>>6] |= 1 << (uint(lg) & 63)
						fs.buckets[lg] = append(fs.buckets[lg], g)
					}
				}
			}
			fs.buckets[lvl] = fs.buckets[lvl][:0]
		}
	}
	for _, oi := range fs.touched {
		faulty[oi] = good[oi]
	}
	fs.touched = fs.touched[:0]
	return det
}

// DetectMask returns, as a bitmask over the loaded lanes (lane t at bit
// t&63 of word t/64), the patterns that detect fault f at a primary
// output or flop data input. The returned slice is an internal buffer
// reused by the next call.
func (fs *FaultSimW) DetectMask(f Fault) []uint64 {
	stuck := uint64(0)
	if f.Stuck {
		stuck = ^uint64(0)
	}
	det := fs.detBuf
	for k := 0; k < fs.ww; k++ {
		det[k] = fs.detectWord(f, stuck, k)
	}
	return det
}

// DetectAllMask is the batched fault-dropping pass: one packed sweep over
// every fault still short of its nDetect quota, under the patterns loaded
// by SetPatterns. Per fault, detections are credited to the
// lowest-indexed detecting lanes until the quota is met — ascending word,
// then ascending bit within the word, which is exactly the order a serial
// per-pattern sweep credits them. The updated detCount values (and, when
// non-nil, the detected flags) are therefore bit-identical to processing
// the loaded patterns one at a time in lane order, at any lane width. The
// return value is the mask of lanes that received at least one credit,
// i.e. the patterns that earned their place in the set; like DetectMask's
// result it is an internal buffer reused by the next call.
//
// Because crediting is ascending-word-first, lane words past the one that
// fills the quota cannot contribute; the sweep therefore stops simulating
// a fault as soon as its quota is met, which for dropping sweeps
// (nDetect 1) skips most of the batch for every easy fault.
func (fs *FaultSimW) DetectAllMask(faults []Fault, detCount []int, detected []bool, nDetect int) []uint64 {
	if nDetect < 1 {
		nDetect = 1
	}
	cred := fs.credBuf
	for k := range cred {
		cred[k] = 0
	}
	for i, f := range faults {
		if detCount[i] >= nDetect {
			continue
		}
		stuck := uint64(0)
		if f.Stuck {
			stuck = ^uint64(0)
		}
		hit := false
		for k := 0; k < fs.ww && detCount[i] < nDetect; k++ {
			m := fs.detectWord(f, stuck, k)
			if m == 0 {
				continue
			}
			hit = true
			for m != 0 && detCount[i] < nDetect {
				low := m & (-m)
				cred[k] |= low
				m &^= low
				detCount[i]++
			}
		}
		if hit && detected != nil {
			detected[i] = true
		}
	}
	return cred
}

// Lanes returns the number of loaded pattern lanes (0 before the first
// SetPatterns call); telemetry uses it to count packed work.
func (fs *FaultSimW) Lanes() int { return fs.n }

// Fused (type, arity) opcodes for the event loops of FaultSimW and the
// PODEM engine: the dominant one- and two-input gates dispatch straight
// to a branch-free body instead of paying a fanin loop per event.
const (
	fopBuf uint8 = iota
	fopNot
	fopAnd2
	fopNand2
	fopOr2
	fopNor2
	fopXor2
	fopXnor2
	fopAndN
	fopNandN
	fopOrN
	fopNorN
	fopXorN
	fopXnorN
	fopMux2
)

// fuseOp lowers a gate type and fanin count to its event-loop opcode,
// panicking — naming the offender — on a type no event loop can run.
func fuseOp(t logic.GateType, nIn int) uint8 {
	two := nIn == 2
	switch t {
	case logic.Buf:
		return fopBuf
	case logic.Not:
		return fopNot
	case logic.And:
		if two {
			return fopAnd2
		}
		return fopAndN
	case logic.Nand:
		if two {
			return fopNand2
		}
		return fopNandN
	case logic.Or:
		if two {
			return fopOr2
		}
		return fopOrN
	case logic.Nor:
		if two {
			return fopNor2
		}
		return fopNorN
	case logic.Xor:
		if two {
			return fopXor2
		}
		return fopXorN
	case logic.Xnor:
		if two {
			return fopXnor2
		}
		return fopXnorN
	case logic.Mux2:
		return fopMux2
	}
	panic("atpg: unsupported gate type " + t.String())
}
