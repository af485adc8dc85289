package atpg

import (
	"math/bits"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/testability"
)

// podemStatus is the outcome of one deterministic test-generation run.
type podemStatus int

const (
	podemSuccess podemStatus = iota
	// podemUntestable: the search space was exhausted — the fault is
	// redundant (no test exists).
	podemUntestable
	// podemAborted: the backtrack limit was hit before a conclusion.
	podemAborted
)

// A net's dual-rail value packs the good-circuit level into bits 0–1 and
// the faulty-circuit level into bits 2–3 (good | faulty<<2), each in
// logic.Value's encoding: X=0, Zero=1, One=2. So bits 0 and 2 mean "is 0"
// and bits 1 and 3 mean "is 1", and one bitwise operation evaluates both
// circuits at once.
const (
	railZero = 0b0101 // the "is 0" bit of both rails
	railOne  = 0b1010 // the "is 1" bit of both rails
	railGood = 0b0011 // the good rail
)

func pairOf(good, faulty logic.Value) uint8 { return uint8(good) | uint8(faulty)<<2 }

// notPair complements both rails: each rail's "is 0" and "is 1" bits swap.
func notPair(v uint8) uint8 { return v&railZero<<1 | v>>1&railZero }

// diffPair reports whether v carries a binary good/faulty difference (D
// or D'): both rails binary and unequal, i.e. complementary bits.
func diffPair(v uint8) bool { return (v^v>>2)&3 == 3 }

// evalPair evaluates a gate of type t over the inputs ins on both rails
// of val at once. On each rail it agrees with logic.Eval
// (TestPodemEvalPairMatchesEval).
func evalPair(t logic.GateType, ins []netlist.NetID, val []uint8) uint8 {
	switch t {
	case logic.Buf:
		return val[ins[0]]
	case logic.Not:
		return notPair(val[ins[0]])
	case logic.And, logic.Nand:
		// 0 when any input is 0, 1 when every input is 1.
		anyBit, allBits := reducePair(ins, val)
		r := anyBit&railZero | allBits&railOne
		if t == logic.Nand {
			return notPair(r)
		}
		return r
	case logic.Or, logic.Nor:
		anyBit, allBits := reducePair(ins, val)
		r := anyBit&railOne | allBits&railZero
		if t == logic.Nor {
			return notPair(r)
		}
		return r
	case logic.Xor, logic.Xnor:
		// A rail is known when every input is binary on it; its value is
		// the parity of the "is 1" bits. known starts as railZero, so it
		// keeps one bit per rail and masks the other bits of parity.
		known, parity := uint8(railZero), uint8(0)
		for _, in := range ins {
			v := val[in]
			known &= v | v>>1
			parity ^= v >> 1
		}
		if t == logic.Xnor {
			parity ^= railZero
		}
		return known&parity<<1 | known&^parity
	case logic.Mux2:
		// sel picks d0 or d1; an X select still yields a value both data
		// inputs agree on.
		d0, d1, s := val[ins[0]], val[ins[1]], val[ins[2]]
		sel0 := s & railZero
		sel0 |= sel0 << 1
		sel1 := s & railOne
		sel1 |= sel1 >> 1
		return sel0&d0 | sel1&d1 | d0&d1
	}
	panic("atpg: evalPair on unknown gate type " + t.String())
}

// reducePair returns the OR and the AND of the inputs' dual-rail values.
func reducePair(ins []netlist.NetID, val []uint8) (anyBit, allBits uint8) {
	allBits = 0b1111
	for _, in := range ins {
		v := val[in]
		anyBit |= v
		allBits &= v
	}
	return anyBit, allBits
}

// podemEnv is the per-circuit state shared by every podem engine: the
// decision-input enumeration, a flat copy of the gate graph, topological
// gate ranks (for canonical D-frontier selection), the observed-net set,
// and the optional SCOAP guidance. It is built once per generation
// instead of once per fault, and is read-only after construction, so one
// env safely backs many engines across scheduler workers.
type podemEnv struct {
	c      *netlist.Circuit
	inputs []netlist.NetID
	// inIdx is each net's position in inputs, or -1 for a net that is not
	// a combinational input.
	inIdx []int32
	// The gate graph as flat arrays: per-gate type, output net and level;
	// gate g reads fanin[faninOff[g]:faninOff[g+1]], and net n feeds
	// fanout[fanoutOff[n]:fanoutOff[n+1]].
	gType     []logic.GateType
	gOut      []netlist.NetID
	gLevel    []int32
	faninOff  []int32
	fanin     []netlist.NetID
	fanoutOff []int32
	fanout    []netlist.GateID
	// topoIdx ranks each gate by its position in c.Topo(); the D-frontier
	// gate with the smallest rank is the canonical objective choice.
	topoIdx []int32
	// observed marks nets where a good/faulty difference is a detection:
	// primary outputs and flop D inputs.
	observed []bool
	// scoap, when non-nil, steers backtrace toward the cheapest
	// controllability choices.
	scoap         *testability.Analysis
	maxBacktracks int
}

func newPodemEnv(c *netlist.Circuit, scoap *testability.Analysis, maxBacktracks int) *podemEnv {
	nNets, nGates := c.NumNets(), c.NumGates()
	env := &podemEnv{
		c:             c,
		inputs:        c.CombInputs(),
		inIdx:         make([]int32, nNets),
		gType:         make([]logic.GateType, nGates),
		gOut:          make([]netlist.NetID, nGates),
		gLevel:        make([]int32, nGates),
		faninOff:      make([]int32, nGates+1),
		fanoutOff:     make([]int32, nNets+1),
		topoIdx:       make([]int32, nGates),
		observed:      make([]bool, nNets),
		scoap:         scoap,
		maxBacktracks: maxBacktracks,
	}
	for ni := range env.inIdx {
		env.inIdx[ni] = -1
	}
	for i, n := range env.inputs {
		env.inIdx[n] = int32(i)
	}
	for gi := range c.Gates {
		g := &c.Gates[gi]
		env.gType[gi] = g.Type
		env.gOut[gi] = g.Output
		env.gLevel[gi] = int32(c.Level(netlist.GateID(gi)))
		env.fanin = append(env.fanin, g.Inputs...)
		env.faninOff[gi+1] = int32(len(env.fanin))
	}
	for ni := range c.Nets {
		n := &c.Nets[ni]
		env.fanout = append(env.fanout, n.Fanout...)
		env.fanoutOff[ni+1] = int32(len(env.fanout))
		env.observed[ni] = n.IsPO() || len(n.FanoutFF) > 0
	}
	for i, gi := range c.Topo() {
		env.topoIdx[gi] = int32(i)
	}
	return env
}

func (env *podemEnv) faninOf(g netlist.GateID) []netlist.NetID {
	return env.fanin[env.faninOff[g]:env.faninOff[g+1]]
}

func (env *podemEnv) fanoutOf(n netlist.NetID) []netlist.GateID {
	return env.fanout[env.fanoutOff[n]:env.fanoutOff[n+1]]
}

// podem implements the PODEM algorithm with the (good, faulty) pair
// representation of the D-calculus: each net carries two three-valued
// levels; D corresponds to (1,0) and D' to (0,1). Decisions are made only
// at the combinational inputs (PIs and scan-cell outputs), which is what
// makes PODEM's backtracking complete.
//
// The default engine implies incrementally over the env's flat arrays:
// each decision (or flip, or undo) propagates event-driven through level
// buckets from the changed input only, one evalPair per gate for both
// circuits, and the D-frontier is tracked as a difference set instead of
// rescanned — the same technique FaultSim uses. The full mode re-implies
// the whole circuit with logic.Eval on separate good and faulty arrays
// on every step; it is the oracle the incremental engine is
// differentially tested against, and both modes visit identical search
// states.
type podem struct {
	env   *podemEnv
	fault Fault
	// full selects the reference engine: whole-circuit re-implication per
	// decision and a full-topo D-frontier scan per objective.
	full bool

	// val is every net's dual-rail value, the state the search reads.
	// The incremental engine updates it in place; the full engine packs
	// it from goodV and faultV after each imply.
	val    []uint8
	assign []logic.Value // per input, current decision values
	stack  []podemDecision

	// Full-mode state: the good and faulty circuits as logic.Eval sees
	// them.
	goodV  []logic.Value
	faultV []logic.Value
	inBufG []logic.Value
	inBufF []logic.Value

	// Incremental-engine state: a level-bucketed event queue with one bit
	// per level that holds queued gates, and the set of nets carrying a
	// binary good/faulty difference with lazy cleanup.
	buckets  [][]netlist.GateID
	dirty    []uint64
	queued   []bool
	stuck    uint8 // the fault site's stuck value on the faulty rail, good rail X
	diffList []netlist.NetID
	diffMark []bool // net currently carries a binary difference
	inList   []bool // net is present in diffList
	// obsDiff counts observed nets currently carrying a difference, so
	// detection is a counter check instead of a PO/FF scan.
	obsDiff int

	// backtracks is the number of decision flips the last run performed.
	backtracks int
}

type podemDecision struct {
	input   int
	value   logic.Value
	flipped bool
}

// newPodem builds an engine bound to env; one engine is reused across
// faults via run(f), so the per-net arrays are allocated once per worker
// rather than once per fault.
func (env *podemEnv) newPodem(full bool) *podem {
	c := env.c
	p := &podem{
		env:    env,
		full:   full,
		val:    make([]uint8, c.NumNets()),
		assign: make([]logic.Value, len(env.inputs)),
	}
	if full {
		p.goodV = make([]logic.Value, c.NumNets())
		p.faultV = make([]logic.Value, c.NumNets())
		p.inBufG = make([]logic.Value, 0, 8)
		p.inBufF = make([]logic.Value, 0, 8)
		return p
	}
	depth := c.Depth()
	p.buckets = make([][]netlist.GateID, depth)
	p.dirty = make([]uint64, (depth+63)/64)
	p.queued = make([]bool, c.NumGates())
	p.diffMark = make([]bool, c.NumNets())
	p.inList = make([]bool, c.NumNets())
	return p
}

// reset rebinds the engine to fault f and restores the all-X state. With
// every input X the good circuit is all X and the faulty one differs only
// below the fault site, so the incremental engine queues the site's
// fanout and the run's first imply propagates the stuck value from there.
func (p *podem) reset(f Fault) {
	p.fault = f
	p.backtracks = 0
	p.stack = p.stack[:0]
	for i := range p.assign {
		p.assign[i] = logic.X
	}
	if p.full {
		return
	}
	// A run that ended on a flip or an undo leaves events queued.
	for w, word := range p.dirty {
		for ; word != 0; word &= word - 1 {
			lvl := w*64 + bits.TrailingZeros64(word)
			for _, g := range p.buckets[lvl] {
				p.queued[g] = false
			}
			p.buckets[lvl] = p.buckets[lvl][:0]
		}
		p.dirty[w] = 0
	}
	for _, n := range p.diffList {
		p.diffMark[n] = false
		p.inList[n] = false
	}
	p.diffList = p.diffList[:0]
	p.obsDiff = 0
	clear(p.val)
	p.stuck = pairOf(logic.X, logic.FromBool(f.Stuck))
	p.val[f.Net] = p.stuck
	p.scheduleFanout(f.Net)
}

// noteNet refreshes net n's membership in the difference set after its
// value changed.
func (p *podem) noteNet(n netlist.NetID) {
	d := diffPair(p.val[n])
	if d == p.diffMark[n] {
		return
	}
	p.diffMark[n] = d
	if p.env.observed[n] {
		if d {
			p.obsDiff++
		} else {
			p.obsDiff--
		}
	}
	if d && !p.inList[n] {
		p.inList[n] = true
		p.diffList = append(p.diffList, n)
	}
}

func (p *podem) scheduleFanout(n netlist.NetID) {
	env := p.env
	for _, g := range env.fanoutOf(n) {
		if !p.queued[g] {
			p.queued[g] = true
			lvl := env.gLevel[g]
			p.buckets[lvl] = append(p.buckets[lvl], g)
			p.dirty[lvl>>6] |= 1 << (lvl & 63)
		}
	}
}

// assignInput records a decision value (or its undo, v == X) and, in
// incremental mode, applies it to both circuits and queues the fanout for
// the next propagation. A faulty input keeps its stuck value.
func (p *podem) assignInput(i int, v logic.Value) {
	p.assign[i] = v
	if p.full {
		return
	}
	n := p.env.inputs[i]
	nv := pairOf(v, v)
	if n == p.fault.Net {
		nv = uint8(v) | p.stuck
	}
	if p.val[n] != nv {
		p.val[n] = nv
		p.noteNet(n)
		p.scheduleFanout(n)
	}
}

// imply forward-simulates both the good and the faulty circuit from the
// current input assignment: a whole-cone pass in full mode, an
// event-driven drain of the queued gates otherwise, visiting only the
// levels that hold any, lowest first. The fault net is forced to the
// stuck value in the faulty circuit.
func (p *podem) imply() {
	if p.full {
		p.implyFull()
		return
	}
	env := p.env
	f := p.fault.Net
	for w := 0; w < len(p.dirty); {
		word := p.dirty[w]
		if word == 0 {
			w++
			continue
		}
		b := bits.TrailingZeros64(word)
		p.dirty[w] = word &^ (1 << b)
		lvl := w*64 + b
		// Gates queued while draining sit at higher levels, never in q.
		q := p.buckets[lvl]
		for _, gi := range q {
			p.queued[gi] = false
			out := env.gOut[gi]
			nv := evalPair(env.gType[gi], env.faninOf(gi), p.val)
			if out == f {
				nv = nv&railGood | p.stuck
			}
			if p.val[out] != nv {
				p.val[out] = nv
				p.noteNet(out)
				p.scheduleFanout(out)
			}
		}
		p.buckets[lvl] = q[:0]
	}
}

func (p *podem) implyFull() {
	c := p.env.c
	for i, n := range p.env.inputs {
		p.goodV[n] = p.assign[i]
		p.faultV[n] = p.assign[i]
	}
	stuck := logic.FromBool(p.fault.Stuck)
	if p.env.inIdx[p.fault.Net] >= 0 {
		p.faultV[p.fault.Net] = stuck
	}
	for _, gi := range c.Topo() {
		g := &c.Gates[gi]
		p.inBufG = p.inBufG[:0]
		p.inBufF = p.inBufF[:0]
		for _, in := range g.Inputs {
			p.inBufG = append(p.inBufG, p.goodV[in])
			p.inBufF = append(p.inBufF, p.faultV[in])
		}
		p.goodV[g.Output] = logic.Eval(g.Type, p.inBufG)
		if g.Output == p.fault.Net {
			p.faultV[g.Output] = stuck
		} else {
			p.faultV[g.Output] = logic.Eval(g.Type, p.inBufF)
		}
	}
	for n := range p.val {
		p.val[n] = pairOf(p.goodV[n], p.faultV[n])
	}
}

// detected reports whether some observed net (PO or flop D input) carries
// a binary good/faulty difference.
func (p *podem) detected() bool {
	if !p.full {
		return p.obsDiff > 0
	}
	for _, po := range p.env.c.POs {
		if diffBinary(p.goodV[po], p.faultV[po]) {
			return true
		}
	}
	for _, ff := range p.env.c.FFs {
		if diffBinary(p.goodV[ff.D], p.faultV[ff.D]) {
			return true
		}
	}
	return false
}

func diffBinary(a, b logic.Value) bool {
	return a.IsBinary() && b.IsBinary() && a != b
}

// hasXInput reports whether gate g has an input whose good value is X.
func (p *podem) hasXInput(g netlist.GateID) bool {
	for _, in := range p.env.faninOf(g) {
		if p.val[in]&railGood == 0 {
			return true
		}
	}
	return false
}

// frontier returns the canonical D-frontier gate — the topologically
// first gate with a binary-difference input, an output that can still
// change, and an unassigned side input — or InvalidGate when the frontier
// is empty. The incremental engine enumerates candidates from the fanout
// of the live difference set, compacting dead entries as it goes; the
// result is the same gate the full-topo scan picks.
func (p *podem) frontier() netlist.GateID {
	env := p.env
	live := p.diffList[:0]
	best := int32(-1)
	bestG := netlist.InvalidGate
	for _, n := range p.diffList {
		if !p.diffMark[n] {
			p.inList[n] = false
			continue
		}
		live = append(live, n)
		for _, gi := range env.fanoutOf(n) {
			ti := env.topoIdx[gi]
			if best != -1 && ti >= best {
				continue
			}
			if v := p.val[env.gOut[gi]]; v&railGood != 0 && v&^railGood != 0 {
				continue
			}
			if !p.hasXInput(gi) {
				continue
			}
			best, bestG = ti, gi
		}
	}
	p.diffList = live
	return bestG
}

func (p *podem) frontierFull() netlist.GateID {
	c := p.env.c
	for _, gi := range c.Topo() {
		g := &c.Gates[gi]
		if p.goodV[g.Output] != logic.X && p.faultV[g.Output] != logic.X {
			continue
		}
		hasD := false
		for _, in := range g.Inputs {
			if diffBinary(p.goodV[in], p.faultV[in]) {
				hasD = true
				break
			}
		}
		if !hasD {
			continue
		}
		hasX := false
		for _, in := range g.Inputs {
			if p.goodV[in] == logic.X {
				hasX = true
				break
			}
		}
		if !hasX {
			continue
		}
		return gi
	}
	return netlist.InvalidGate
}

// objective returns the next (net, value) goal, or ok=false when the
// current partial assignment cannot lead to a detection (activation
// blocked or D-frontier empty).
func (p *podem) objective() (netlist.NetID, logic.Value, bool) {
	fv := logic.Value(p.val[p.fault.Net] & railGood)
	want := logic.FromBool(!p.fault.Stuck)
	if fv == logic.X {
		return p.fault.Net, want, true
	}
	if fv != want {
		return 0, 0, false // activation conflict
	}
	// Fault activated: find a D-frontier gate — an input carries a binary
	// difference and the output can still change.
	var gi netlist.GateID
	if p.full {
		gi = p.frontierFull()
	} else {
		gi = p.frontier()
	}
	if gi == netlist.InvalidGate {
		return 0, 0, false // D-frontier empty
	}
	// Objective: set an unassigned side input to the value that lets the
	// difference through (non-controlling where defined).
	t := p.env.gType[gi]
	ins := p.env.faninOf(gi)
	for _, in := range ins {
		if p.val[in]&railGood == 0 {
			v := logic.One
			if t.HasControllingValue() {
				v = t.NonControllingValue()
			} else if t == logic.Mux2 && in == ins[2] {
				// Select line of a MUX: either side works; pick the side
				// carrying the difference.
				if diffPair(p.val[ins[1]]) {
					v = logic.One
				} else {
					v = logic.Zero
				}
			}
			return in, v, true
		}
	}
	return 0, 0, false
}

// backtrace maps an internal objective to an input assignment by walking
// X-paths backwards through drivers.
func (p *podem) backtrace(n netlist.NetID, v logic.Value) (int, logic.Value) {
	env := p.env
	scoap := env.scoap
	for {
		if idx := env.inIdx[n]; idx >= 0 {
			return int(idx), v
		}
		gi := env.c.Nets[n].Driver
		if env.gType[gi].Inverting() {
			v = v.Not()
		}
		// Choose an input with X good value; one must exist because the
		// net itself is X (or we are tracing through binary nets toward
		// the fault site — then any X input works, and if none is X the
		// first input keeps the walk moving toward the inputs). With
		// SCOAP, prefer the X input whose controllability toward the
		// propagated value is cheapest.
		ins := env.faninOf(gi)
		next := ins[0]
		bestCost := -1
		for _, in := range ins {
			if p.val[in]&railGood != 0 {
				continue
			}
			if scoap == nil {
				next = in
				break
			}
			cost := scoap.Controllability(in, v == logic.One)
			if v == logic.X {
				cost = scoap.CC0[in]
				if scoap.CC1[in] < cost {
					cost = scoap.CC1[in]
				}
			}
			if bestCost == -1 || cost < bestCost {
				bestCost = cost
				next = in
			}
		}
		n = next
	}
}

// run executes the PODEM search for fault f. On success the input
// assignment (with X for untouched inputs) is left in p.assign.
func (p *podem) run(f Fault) podemStatus {
	p.reset(f)
	for {
		p.imply()
		if p.detected() {
			return podemSuccess
		}
		obj, val, ok := p.objective()
		if ok {
			in, v := p.backtrace(obj, val)
			if p.assign[in] != logic.X {
				// Backtrace landed on an assigned input (possible on
				// reconvergent paths): treat as conflict.
				ok = false
			} else {
				p.stack = append(p.stack, podemDecision{input: in, value: v})
				p.assignInput(in, v)
				continue
			}
		}
		// Conflict: flip the most recent unflipped decision.
		flipped := false
		for len(p.stack) > 0 {
			top := &p.stack[len(p.stack)-1]
			if !top.flipped {
				top.flipped = true
				top.value = top.value.Not()
				p.assignInput(top.input, top.value)
				flipped = true
				break
			}
			p.assignInput(top.input, logic.X)
			p.stack = p.stack[:len(p.stack)-1]
		}
		if !flipped {
			return podemUntestable
		}
		p.backtracks++
		if p.backtracks > p.env.maxBacktracks {
			return podemAborted
		}
	}
}
