package sim

import (
	"fmt"
	"sort"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// WideWords is the number of uint64 words each net carries in the wide
// (256-lane) packed backend.
const WideWords = 4

// WideLanes is the lane width of the wide packed backend: WideWords
// uint64 words per net carry 256 independent evaluations.
const WideLanes = WideWords * 64

// PackedLanes is the lane width of Program.Run at one word per net: one
// uint64 per net carries 64 independent evaluations (the 64-lane fault
// simulator's width).
const PackedLanes = 64

// opcode is the compiled form of a logic.GateType. The variable-arity
// inverting pairs share the accumulation loop of their positive form and
// differ only in a final complement.
type opcode uint8

const (
	opBuf opcode = iota
	opNot
	opAnd
	opNand
	opOr
	opNor
	opXor
	opXnor
	opMux2
)

var opcodeOf = [...]opcode{
	logic.Buf:  opBuf,
	logic.Not:  opNot,
	logic.And:  opAnd,
	logic.Nand: opNand,
	logic.Or:   opOr,
	logic.Nor:  opNor,
	logic.Xor:  opXor,
	logic.Xnor: opXnor,
	logic.Mux2: opMux2,
}

// Program is a frozen circuit's combinational core lowered to a
// levelized, flat structure-of-arrays form: one contiguous instruction
// stream sorted by (topological level, GateID), with every gate's fanin
// run flattened into a single shared index slice. All packed evaluators
// — Program.Run at 64 lanes, Wide and Wide3 at 256 — execute this one program
// through width-specialized copies of one evaluator loop, so a cache line
// of the instruction stream serves whatever lane width the caller
// picked. (The cores are specialized by hand rather than by Go
// generics: shape-dictionary method calls defeat inlining and measure
// ~3x slower per word on the same stream.)
//
// A Program is immutable after Compile and safe for concurrent use.
type Program struct {
	c        *netlist.Circuit
	ops      []opcode        // per instruction, len NumGates
	outs     []netlist.NetID // per instruction: output net
	gates    []netlist.GateID
	finStart []int32         // per instruction: offset into fins; len NumGates+1
	fins     []netlist.NetID // flattened fanin runs in gate-input order
	levels   []int32         // levels[l]..levels[l+1] = instruction range of level l
}

// Compile lowers the frozen circuit c into a levelized structure-of-arrays
// program. Instructions are ordered by (Level, GateID) ascending — a valid
// topological order, since a gate's level is strictly greater than each of
// its fanin drivers' levels — and fanins keep their netlist multiplicity
// and order, so evaluation is bit-identical to walking c.Topo().
func Compile(c *netlist.Circuit) *Program {
	if !c.Frozen() {
		panic(fmt.Sprintf("sim: Compile needs a frozen circuit (circuit %q is not frozen)", c.Name))
	}
	n := c.NumGates()
	p := &Program{
		c:        c,
		ops:      make([]opcode, n),
		outs:     make([]netlist.NetID, n),
		gates:    make([]netlist.GateID, n),
		finStart: make([]int32, n+1),
	}
	for i := range p.gates {
		p.gates[i] = netlist.GateID(i)
	}
	sort.Slice(p.gates, func(a, b int) bool {
		ga, gb := p.gates[a], p.gates[b]
		la, lb := c.Level(ga), c.Level(gb)
		if la != lb {
			return la < lb
		}
		return ga < gb
	})
	nFins := 0
	for _, g := range c.Gates {
		nFins += len(g.Inputs)
	}
	p.fins = make([]netlist.NetID, 0, nFins)
	depth := c.Depth()
	p.levels = make([]int32, depth+1)
	level := 0
	for i, gi := range p.gates {
		g := &c.Gates[gi]
		if int(g.Type) >= len(opcodeOf) || (g.Type != logic.Buf && opcodeOf[g.Type] == opBuf) {
			panic(fmt.Sprintf("sim: Compile on unknown gate type %s in circuit %q", g.Type.String(), c.Name))
		}
		p.ops[i] = opcodeOf[g.Type]
		p.outs[i] = g.Output
		p.finStart[i] = int32(len(p.fins))
		p.fins = append(p.fins, g.Inputs...)
		for l := c.Level(gi); level < l; level++ {
			p.levels[level+1] = int32(i)
		}
	}
	p.finStart[n] = int32(len(p.fins))
	for ; level < depth; level++ {
		p.levels[level+1] = int32(n)
	}
	return p
}

// Circuit returns the compiled circuit.
func (p *Program) Circuit() *netlist.Circuit { return p.c }

// NumInstrs returns the instruction count (one per gate).
func (p *Program) NumInstrs() int { return len(p.ops) }

// GateOf returns the GateID the i-th instruction was lowered from.
func (p *Program) GateOf(i int) netlist.GateID { return p.gates[i] }

// Fanins returns the i-th instruction's fanin nets in gate-input order.
// The slice aliases the program's flattened index stream; do not modify.
func (p *Program) Fanins(i int) []netlist.NetID {
	return p.fins[p.finStart[i]:p.finStart[i+1]]
}

// Output returns the i-th instruction's output net.
func (p *Program) Output(i int) netlist.NetID { return p.outs[i] }

// LevelRange returns the half-open instruction range holding the gates of
// topological level l (0-based, matching netlist.Circuit.Level). The last
// level's range ends at NumInstrs.
func (p *Program) LevelRange(l int) (int, int) {
	end := p.NumInstrs()
	if l+1 < len(p.levels) {
		end = int(p.levels[l+1])
	}
	return int(p.levels[l]), end
}

// Run evaluates the program in place over caller-owned flat lane words:
// v holds ww uint64 words per net, indexed v[int(n)*ww : int(n)*ww+ww],
// with every PI and pseudo-input group already set. Every gate-output
// group is recomputed in instruction order. ww must be 1 (64 lanes) or
// WideWords (256 lanes).
func (p *Program) Run(v []uint64, ww int) {
	if ww != 1 && ww != WideWords {
		panic(fmt.Sprintf("sim: program for circuit %q: invalid lane words %d (want 1 or %d)", p.c.Name, ww, WideWords))
	}
	if len(v) != p.c.NumNets()*ww {
		panic(fmt.Sprintf("sim: program Run for circuit %q: state length %d, want %d nets x %d words = %d",
			p.c.Name, len(v), p.c.NumNets(), ww, p.c.NumNets()*ww))
	}
	if ww == 1 {
		runProg1(p, v)
	} else {
		runProg4(p, v)
	}
}

// w4 is the four-word (256-lane) lane group of the wide backend. It is
// a struct, not a [4]uint64: the compiler keeps small structs in
// registers through SSA, while multi-element arrays spill to memory,
// and the concrete inlineable methods below are what let the wide cores
// run at ~4x the scalar cost per pass instead of the ~15x a
// dictionary-based generic kernel measures on the same instruction
// stream.
type w4 struct{ a, b, c, d uint64 }

// ld4 loads net n's four-word lane group from the flat state (the
// layout of Wide/Wide3: net n at v[n*WideWords : (n+1)*WideWords]).
func ld4(v []uint64, n int) w4 {
	s := v[n*WideWords : n*WideWords+WideWords : n*WideWords+WideWords]
	return w4{s[0], s[1], s[2], s[3]}
}

// st4 stores the group back to net n of the flat state.
func (w w4) st4(v []uint64, n int) {
	s := v[n*WideWords : n*WideWords+WideWords : n*WideWords+WideWords]
	s[0], s[1], s[2], s[3] = w.a, w.b, w.c, w.d
}

func (w w4) not() w4 { return w4{^w.a, ^w.b, ^w.c, ^w.d} }

func (w w4) and(o w4) w4 { return w4{w.a & o.a, w.b & o.b, w.c & o.c, w.d & o.d} }

func (w w4) or(o w4) w4 { return w4{w.a | o.a, w.b | o.b, w.c | o.c, w.d | o.d} }

func (w w4) xor(o w4) w4 { return w4{w.a ^ o.a, w.b ^ o.b, w.c ^ o.c, w.d ^ o.d} }

func (w w4) andNot(o w4) w4 { return w4{w.a &^ o.a, w.b &^ o.b, w.c &^ o.c, w.d &^ o.d} }

// runProg1 is the two-valued evaluator core at one word per net. The
// three cores below are width-specialized by hand from one reference
// semantics (logic.EvalBool / logic.Eval per lane); the differential and
// fuzz tests pin every core bit-identical to the scalar simulator, which
// is what licenses the duplication.
func runProg1(p *Program, v []uint64) {
	fins := p.fins
	for ii, op := range p.ops {
		s, e := int(p.finStart[ii]), int(p.finStart[ii+1])
		w := v[fins[s]]
		switch op {
		case opBuf:
		case opNot:
			w = ^w
		case opAnd, opNand:
			for j := s + 1; j < e; j++ {
				w &= v[fins[j]]
			}
			if op == opNand {
				w = ^w
			}
		case opOr, opNor:
			for j := s + 1; j < e; j++ {
				w |= v[fins[j]]
			}
			if op == opNor {
				w = ^w
			}
		case opXor, opXnor:
			for j := s + 1; j < e; j++ {
				w ^= v[fins[j]]
			}
			if op == opXnor {
				w = ^w
			}
		case opMux2:
			d1 := v[fins[s+1]]
			sel := v[fins[s+2]]
			w = (w &^ sel) | (d1 & sel)
		}
		v[p.outs[ii]] = w
	}
}

// runProg4 is runProg1 at four words per net.
func runProg4(p *Program, v []uint64) {
	fins := p.fins
	for ii, op := range p.ops {
		s, e := int(p.finStart[ii]), int(p.finStart[ii+1])
		w := ld4(v, int(fins[s]))
		switch op {
		case opBuf:
		case opNot:
			w = w.not()
		case opAnd, opNand:
			for j := s + 1; j < e; j++ {
				w = w.and(ld4(v, int(fins[j])))
			}
			if op == opNand {
				w = w.not()
			}
		case opOr, opNor:
			for j := s + 1; j < e; j++ {
				w = w.or(ld4(v, int(fins[j])))
			}
			if op == opNor {
				w = w.not()
			}
		case opXor, opXnor:
			for j := s + 1; j < e; j++ {
				w = w.xor(ld4(v, int(fins[j])))
			}
			if op == opXnor {
				w = w.not()
			}
		case opMux2:
			d1 := ld4(v, int(fins[s+1]))
			sel := ld4(v, int(fins[s+2]))
			w = w.andNot(sel).or(d1.and(sel))
		}
		w.st4(v, int(p.outs[ii]))
	}
}

// runProg3w4 is the three-valued evaluator core at four words per rail
// per net: the dual-rail normalized-encoding twin of runProg4 with the
// optimistic rules of logic.Eval (controlling values force outputs
// through X side inputs; MUX2 with an X select resolves where both data
// inputs agree).
func runProg3w4(p *Program, v, x []uint64) {
	fins := p.fins
	for ii, op := range p.ops {
		s, e := int(p.finStart[ii]), int(p.finStart[ii+1])
		var ov, ox w4
		switch op {
		case opBuf:
			ov, ox = ld4(v, int(fins[s])), ld4(x, int(fins[s]))
		case opNot:
			ox = ld4(x, int(fins[s]))
			ov = ld4(v, int(fins[s])).not().andNot(ox)
		case opAnd, opNand:
			one := ld4(v, int(fins[s]))
			zero := ld4(x, int(fins[s])).not().andNot(one)
			for j := s + 1; j < e; j++ {
				iv, ix := ld4(v, int(fins[j])), ld4(x, int(fins[j]))
				one = one.and(iv)
				zero = zero.or(ix.not().andNot(iv))
			}
			if op == opAnd {
				ov = one
			} else {
				ov = zero
			}
			ox = one.or(zero).not()
		case opOr, opNor:
			one := ld4(v, int(fins[s]))
			zero := ld4(x, int(fins[s])).not().andNot(one)
			for j := s + 1; j < e; j++ {
				iv, ix := ld4(v, int(fins[j])), ld4(x, int(fins[j]))
				one = one.or(iv)
				zero = zero.and(ix.not().andNot(iv))
			}
			if op == opOr {
				ov = one
			} else {
				ov = zero
			}
			ox = one.or(zero).not()
		case opXor, opXnor:
			known := ld4(x, int(fins[s])).not()
			sum := ld4(v, int(fins[s]))
			for j := s + 1; j < e; j++ {
				known = known.andNot(ld4(x, int(fins[j])))
				sum = sum.xor(ld4(v, int(fins[j])))
			}
			if op == opXor {
				ov = sum.and(known)
			} else {
				ov = sum.not().and(known)
			}
			ox = known.not()
		case opMux2:
			d0v, d0x := ld4(v, int(fins[s])), ld4(x, int(fins[s]))
			d1v, d1x := ld4(v, int(fins[s+1])), ld4(x, int(fins[s+1]))
			sv, sx := ld4(v, int(fins[s+2])), ld4(x, int(fins[s+2]))
			m1 := sv.andNot(sx)
			m0 := sx.or(sv).not()
			agree := d0x.or(d1x).or(d0v.xor(d1v)).not()
			ov = m1.and(d1v).or(m0.and(d0v)).or(sx.and(agree).and(d0v))
			ox = m1.and(d1x).or(m0.and(d0x)).or(sx.andNot(agree))
		}
		ov.st4(v, int(p.outs[ii]))
		ox.st4(x, int(p.outs[ii]))
	}
}
