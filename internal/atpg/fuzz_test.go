package atpg

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// atpgFuzzCircuit builds a small random, well-formed frozen circuit from
// a seed: a DAG of random gates over a few PIs and flops (same idiom as
// the power-kernel fuzzers).
func atpgFuzzCircuit(rng *rand.Rand) *netlist.Circuit {
	c := netlist.New("fuzz")
	nPI := 1 + rng.Intn(3)
	nFF := 1 + rng.Intn(4)
	var nets []string
	for i := 0; i < nPI; i++ {
		name := "pi" + string(rune('a'+i))
		c.AddPI(name)
		nets = append(nets, name)
	}
	for i := 0; i < nFF; i++ {
		nets = append(nets, "q"+string(rune('a'+i)))
	}
	types := []logic.GateType{logic.Not, logic.Buf, logic.And, logic.Nand,
		logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Mux2}
	nGates := 3 + rng.Intn(20)
	var driven []string
	for i := 0; i < nGates; i++ {
		tpe := types[rng.Intn(len(types))]
		arity := 2 + rng.Intn(3)
		switch tpe {
		case logic.Not, logic.Buf:
			arity = 1
		case logic.Mux2:
			arity = 3
		}
		ins := make([]string, arity)
		for j := range ins {
			ins[j] = nets[rng.Intn(len(nets))]
		}
		out := "g" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		c.AddGate(tpe, out, ins...)
		nets = append(nets, out)
		driven = append(driven, out)
	}
	for i := 0; i < nFF; i++ {
		d := driven[rng.Intn(len(driven))]
		c.AddFF("f"+string(rune('a'+i)), "q"+string(rune('a'+i)), d)
	}
	c.MarkPO(driven[len(driven)-1])
	c.MustFreeze()
	return c
}

// FuzzFaultSimEquivalence drives random circuits and pattern batches
// through the serial fault simulator and the 64-way packed one, and
// requires lane-for-lane agreement: DetectMask bit L set iff the serial
// simulator detects that fault under pattern L, and the batched
// DetectAllMask crediting equal to a serial per-pattern sweep.
// `make fuzz-equiv` runs this continuously; the seed corpus runs on
// every `go test`.
func FuzzFaultSimEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(1))
	f.Add(int64(42), uint8(64), uint8(2))
	f.Add(int64(7), uint8(1), uint8(0))
	f.Add(int64(99), uint8(33), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nPats, nd uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := atpgFuzzCircuit(rng)
		batch := randomBatch(c, rng, int(nPats)%64+1)
		faults := AllFaults(c)
		if len(faults) == 0 {
			t.Skip("degenerate circuit")
		}

		fs64 := NewFaultSimW(c, 64)
		fs64.SetPatterns(batch)
		masks := make([]uint64, len(faults))
		for i, flt := range faults {
			masks[i] = fs64.DetectMask(flt)[0]
		}

		fs := NewFaultSim(c)
		nDetect := int(nd)%4 + 1
		sCount := make([]int, len(faults))
		var sCredited uint64
		for lane, p := range batch {
			fs.SetPattern(p.PI, p.State)
			for i, flt := range faults {
				got := masks[i]&(1<<lane) != 0
				want := fs.Detects(flt)
				if got != want {
					t.Fatalf("seed=%d lane=%d fault %s: DetectMask=%v serial=%v",
						seed, lane, flt.Name(c), got, want)
				}
				if want && sCount[i] < nDetect {
					sCount[i]++
					sCredited |= 1 << lane
				}
			}
		}

		pCount := make([]int, len(faults))
		fs64.SetPatterns(batch)
		pCredited := fs64.DetectAllMask(faults, pCount, nil, nDetect)[0]
		if pCredited != sCredited {
			t.Fatalf("seed=%d nd=%d: DetectAllMask credited %064b, serial %064b",
				seed, nDetect, pCredited, sCredited)
		}
		for i := range faults {
			if pCount[i] != sCount[i] {
				t.Fatalf("seed=%d nd=%d fault %s: detCount %d vs serial %d",
					seed, nDetect, faults[i].Name(c), pCount[i], sCount[i])
			}
		}
	})
}

// FuzzPodemEquivalence drives random circuits of all nine gate types
// through both PODEM engines: for every fault, with SCOAP guidance on or
// off as the input chooses, the incremental dual-rail engine must reach
// the full logic.Eval engine's status and backtrack count, and on
// success its assignment. `make fuzz-equiv` runs this continuously; the
// seed corpus runs on every `go test`.
func FuzzPodemEquivalence(f *testing.F) {
	// Each seed detects a primary-input fault, propagates a difference
	// through a MUX2 by its select, and leaves an XOR/XNOR with an X input
	// beside a binary one; seed 47 also aborts searches.
	f.Add(int64(0), false)
	f.Add(int64(3), true)
	f.Add(int64(47), false)
	f.Add(int64(47), true)
	f.Fuzz(func(t *testing.T, seed int64, useSCOAP bool) {
		c := atpgFuzzCircuit(rand.New(rand.NewSource(seed)))
		requirePodemModesAgree(t, fmt.Sprintf("seed=%d", seed), c, useSCOAP, 16)
	})
}
