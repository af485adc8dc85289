package iscas

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/timing"
)

// generateReference is the original quadratic generator, kept verbatim as
// the oracle for FuzzGenerateEquivalence: its driver pool is a []string
// with map-backed arrival and unread sets, and every biased input pick
// scans the whole pool. Generate must reproduce its output exactly —
// same rng call sequence, same net IDs, same names — for every profile,
// including the ones it rejects.
func generateReference(p Profile) (*netlist.Circuit, error) {
	if p.PIs < 1 || p.FFs < 1 || p.Gates < p.POs+p.FFs {
		return nil, fmt.Errorf("iscas: implausible profile %+v", p)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	c := netlist.New(p.Name)

	// Driver pool in creation order; unread tracks nets without fanout yet.
	var pool []string
	unread := make(map[string]bool)
	addDriver := func(name string) {
		pool = append(pool, name)
		unread[name] = true
	}
	for i := 0; i < p.PIs; i++ {
		name := fmt.Sprintf("PI%d", i)
		c.AddPI(name)
		addDriver(name)
	}
	for i := 0; i < p.FFs; i++ {
		q := fmt.Sprintf("Q%d", i)
		d := fmt.Sprintf("D%d", i)
		c.AddFF(fmt.Sprintf("ff%d", i), q, d)
		addDriver(q)
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
	// arr holds a conservative arrival-time estimate (ps) per pool net,
	// used to keep the random logic's depth safely below the critical
	// spines built for CritFrac (see below). Spine delays are estimated
	// tightly, natural logic pessimistically (fanout-4 loads).
	arr := make(map[string]float64)
	dm := timing.Default()
	natDelay := func(gt logic.GateType, arity int) float64 {
		return dm.GateDelay(gt, arity, 4)
	}
	const window = 40 // locality window for input selection
	pickInput := func(used map[string]bool, maxArr float64) string {
		for tries := 0; ; tries++ {
			var cand string
			switch {
			case tries < 2 && len(unread) > 0 && rng.Intn(100) < 35:
				// Bias toward unread nets so dead logic stays rare.
				k := rng.Intn(len(pool))
				for off := 0; off < len(pool); off++ {
					n := pool[(k+off)%len(pool)]
					if unread[n] && arr[n] <= maxArr {
						cand = n
						break
					}
				}
			case rng.Intn(100) < 70 && len(pool) > window:
				cand = pool[len(pool)-1-rng.Intn(window)]
			default:
				cand = pool[rng.Intn(len(pool))]
			}
			if cand == "" || used[cand] || arr[cand] > maxArr {
				if tries > 12 {
					// Fall back to any unused, shallow-enough pool entry;
					// primary inputs (arrival 0) always qualify.
					for _, n := range pool {
						if !used[n] && arr[n] <= maxArr {
							return n
						}
					}
					return pool[0]
				}
				continue
			}
			return cand
		}
	}

	// Reserve the last gates to drive the D inputs and POs directly.
	reserved := p.FFs + p.POs
	interior := p.Gates - reserved
	gi := 0
	emitted := 0

	// xorBlock emits the mapped four-NAND2 XOR network over a and b and
	// returns the output net name. The rung delay estimate is exact for
	// the chain topology (n1 drives two loads, n2/n3 one each).
	xorRungDelay := dm.GateDelay(logic.Nand, 2, 2) + 2*dm.GateDelay(logic.Nand, 2, 1)
	xorBlock := func(a, b string) string {
		n1 := fmt.Sprintf("n%d", gi)
		n2 := fmt.Sprintf("n%d", gi+1)
		n3 := fmt.Sprintf("n%d", gi+2)
		out := fmt.Sprintf("n%d", gi+3)
		c.AddGate(logic.Nand, n1, a, b)
		c.AddGate(logic.Nand, n2, a, n1)
		c.AddGate(logic.Nand, n3, b, n1)
		c.AddGate(logic.Nand, out, n2, n3)
		delete(unread, a)
		delete(unread, b)
		aMax := arr[a]
		if arr[b] > aMax {
			aMax = arr[b]
		}
		arr[out] = aMax + xorRungDelay
		gi += 4
		emitted += 4
		return out
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
			var roots []string
			for q := 4 * l; q < 4*(l+1) && q < nCrit; q++ {
				roots = append(roots, fmt.Sprintf("Q%d", q))
			}
			if len(roots) == 1 {
				roots = append(roots, "PI0")
			}
			rootOut := fmt.Sprintf("n%d", gi)
			c.AddGate(logic.Nand, rootOut, roots...)
			for _, r := range roots {
				delete(unread, r)
			}
			arr[rootOut] = dm.GateDelay(logic.Nand, len(roots), 2)
			gi++
			emitted++
			prev := rootOut
			for r := 0; r < rungs; r++ {
				used := map[string]bool{prev: true}
				// Side inputs must stay shallower than the spine so the
				// ladder remains the longest path from its flops.
				side := pickInput(used, arr[prev])
				prev = xorBlock(prev, side)
			}
			addDriver(prev) // the spine output joins the pool unread
			if arr[prev] > spineArr {
				spineArr = arr[prev]
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
			used := make(map[string]bool, 2)
			a := pickInput(used, natCap)
			used[a] = true
			b := pickInput(used, natCap)
			out := xorBlock(a, b)
			// The inner nets are fully consumed inside the block; only
			// the XOR output joins the pool.
			addDriver(out)
			continue
		}
		gt, arity := pickType()
		if arity > len(pool) {
			arity = 2
		}
		used := make(map[string]bool, arity)
		ins := make([]string, 0, arity)
		inArr := 0.0
		for len(ins) < arity {
			n := pickInput(used, natCap)
			used[n] = true
			ins = append(ins, n)
			if arr[n] > inArr {
				inArr = arr[n]
			}
		}
		out := fmt.Sprintf("n%d", gi)
		c.AddGate(gt, out, ins...)
		for _, n := range ins {
			delete(unread, n)
		}
		arr[out] = inArr + natDelay(gt, arity)
		addDriver(out)
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
		used := make(map[string]bool, arity)
		ins := make([]string, 0, arity)
		// Consume unread nets in pool (creation) order for determinism.
		for _, n := range pool {
			if len(ins) >= arity-1 {
				break
			}
			if unread[n] && !used[n] {
				used[n] = true
				ins = append(ins, n)
			}
		}
		for len(ins) < arity {
			n := pickInput(used, natCap)
			used[n] = true
			ins = append(ins, n)
		}
		c.AddGate(gt, out, ins...)
		for _, n := range ins {
			delete(unread, n)
		}
		addDriver(out)
		delete(unread, out)
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
