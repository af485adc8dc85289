package core

import (
	"math/rand"
	"testing"

	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// newTestFinder builds a finder over c where the PIs are controlled and
// every flop is free (non-multiplexed), with deterministic options.
func newTestFinder(t *testing.T, c *netlist.Circuit, muxable []bool) *finder {
	t.Helper()
	opts := ProposedOptions()
	opts.ObsDirected = false
	if muxable == nil {
		muxable = make([]bool, c.NumFFs())
	}
	return newFinder(c, &opts, muxable, nil, rand.New(rand.NewSource(1)))
}

// blockable: one flop feeding a NAND whose other input is a PI — the
// classic blockable transition gate.
func blockableCircuit() *netlist.Circuit {
	c := netlist.New("blockable")
	c.AddPI("a")
	c.AddFF("f", "q", "d")
	c.AddGate(logic.Nand, "x", "q", "a")
	c.AddGate(logic.Not, "d", "x")
	c.MarkPO("x")
	c.MustFreeze()
	return c
}

func TestFinderBlocksThroughControllingValue(t *testing.T) {
	c := blockableCircuit()
	f := newTestFinder(t, c, nil)
	f.run()
	if f.blockedGates != 1 {
		t.Errorf("blockedGates = %d, want 1", f.blockedGates)
	}
	aID, _ := c.NetByName("a")
	if f.assign[aID] != logic.Zero {
		t.Errorf("a assigned %v, want 0 (NAND controlling value)", f.assign[aID])
	}
	// With a=0 the NAND output is constantly 1: x and d are quiet.
	xID, _ := c.NetByName("x")
	dID, _ := c.NetByName("d")
	if f.trans[xID] || f.trans[dID] {
		t.Error("downstream nets still marked transitioning")
	}
	if f.val[xID] != logic.One || f.val[dID] != logic.Zero {
		t.Errorf("implied values x=%v d=%v, want 1/0", f.val[xID], f.val[dID])
	}
}

// unblockable: flop drives an inverter chain — NOT gates have no
// controlling value, so transitions always pass.
func TestFinderCannotBlockInverterChain(t *testing.T) {
	c := netlist.New("invchain")
	c.AddPI("a")
	c.AddFF("f", "q", "d")
	c.AddGate(logic.Not, "x", "q")
	c.AddGate(logic.Not, "y", "x")
	c.AddGate(logic.Nand, "d", "a", "a")
	c.MarkPO("y")
	c.MustFreeze()
	f := newTestFinder(t, c, nil)
	f.run()
	xID, _ := c.NetByName("x")
	yID, _ := c.NetByName("y")
	if !f.trans[xID] || !f.trans[yID] {
		t.Error("inverter chain must stay transitioning")
	}
	if f.blockedGates != 0 {
		t.Errorf("blockedGates = %d, want 0", f.blockedGates)
	}
}

// twoFree: a NAND fed by two free flops has no don't-care side input —
// it must be classified failed, and the transition propagates to where a
// PI can finally block it.
func TestFinderFailsThenBlocksDownstream(t *testing.T) {
	c := netlist.New("twofree")
	c.AddPI("a")
	c.AddFF("f1", "q1", "d1")
	c.AddFF("f2", "q2", "d2")
	c.AddGate(logic.Nand, "x", "q1", "q2") // unblockable: both inputs free
	c.AddGate(logic.Nand, "y", "x", "a")   // blockable via a=0
	c.AddGate(logic.Not, "d1", "y")
	c.AddGate(logic.Not, "d2", "a")
	c.MarkPO("y")
	c.MustFreeze()
	f := newTestFinder(t, c, nil)
	f.run()
	if f.failedGates < 1 {
		t.Errorf("failedGates = %d, want >= 1", f.failedGates)
	}
	if f.blockedGates < 1 {
		t.Errorf("blockedGates = %d, want >= 1", f.blockedGates)
	}
	xID, _ := c.NetByName("x")
	yID, _ := c.NetByName("y")
	if !f.trans[xID] {
		t.Error("x must keep transitioning")
	}
	if f.trans[yID] {
		t.Error("y should be blocked by a=0")
	}
}

// deepJustify: blocking requires justifying a controlling value through
// two levels of logic, exercising backtrace + implication.
func TestJustifyThroughLogic(t *testing.T) {
	c := netlist.New("deep")
	c.AddPI("a")
	c.AddPI("b")
	c.AddFF("f", "q", "d")
	// x = NOR(a, b): x==1 requires a=0 and b=0.
	c.AddGate(logic.Nor, "x", "a", "b")
	// y = NAND(q, inv): blocked by inv==0, i.e. x==1.
	c.AddGate(logic.Not, "inv", "x")
	c.AddGate(logic.Nand, "y", "q", "inv")
	c.AddGate(logic.Not, "d", "y")
	c.MarkPO("y")
	c.MustFreeze()
	f := newTestFinder(t, c, nil)
	f.run()
	aID, _ := c.NetByName("a")
	bID, _ := c.NetByName("b")
	yID, _ := c.NetByName("y")
	if f.trans[yID] {
		// Blocking y requires inv=0 <- x=1 <- a=0,b=0.
		if f.assign[aID] != logic.Zero || f.assign[bID] != logic.Zero {
			t.Errorf("a=%v b=%v", f.assign[aID], f.assign[bID])
		}
	}
	if f.blockedGates != 1 {
		t.Errorf("blockedGates = %d, want 1 (justified through NOR+NOT)", f.blockedGates)
	}
	if f.assign[aID] != logic.Zero || f.assign[bID] != logic.Zero {
		t.Errorf("justification should force a=0,b=0; got a=%v b=%v",
			f.assign[aID], f.assign[bID])
	}
}

// conflictJustify: the only blocking value is unjustifiable because the
// candidate input is driven purely by free flops.
func TestJustifyFailsOnFreeCone(t *testing.T) {
	c := netlist.New("freecone")
	c.AddPI("a")
	c.AddFF("f1", "q1", "d1")
	c.AddFF("f2", "q2", "d2")
	// side = NOT(q2): depends only on a free flop -> unjustifiable.
	c.AddGate(logic.Not, "side", "q2")
	c.AddGate(logic.Nand, "x", "q1", "side")
	c.AddGate(logic.Not, "d1", "x")
	c.AddGate(logic.Not, "d2", "a")
	c.MarkPO("x")
	c.MustFreeze()
	f := newTestFinder(t, c, nil)
	f.run()
	xID, _ := c.NetByName("x")
	if !f.trans[xID] {
		t.Error("x cannot be blocked (side input rides a free cone)")
	}
	// No controlled input should be left assigned by the failed attempt.
	aID, _ := c.NetByName("a")
	if f.assign[aID] != logic.X {
		t.Errorf("failed justification leaked assignment a=%v", f.assign[aID])
	}
}

// muxedFlopIsControlled: with the flop muxed, its Q is a controlled input
// and can itself take the blocking value.
func TestMuxedFlopActsAsControlledInput(t *testing.T) {
	c := netlist.New("muxed")
	c.AddPI("a")
	c.AddFF("f1", "q1", "d1")
	c.AddFF("f2", "q2", "d2")
	c.AddGate(logic.Nand, "x", "q1", "q2")
	c.AddGate(logic.Not, "d1", "x")
	c.AddGate(logic.Not, "d2", "a")
	c.MarkPO("x")
	c.MustFreeze()
	f := newTestFinder(t, c, []bool{false, true}) // q2 muxed
	f.run()
	q2, _ := c.NetByName("q2")
	xID, _ := c.NetByName("x")
	if f.trans[xID] {
		t.Error("x should be blocked via the muxed q2")
	}
	if f.assign[q2] != logic.Zero {
		t.Errorf("q2 assigned %v, want 0", f.assign[q2])
	}
}

func TestFillAssignsEverythingBinary(t *testing.T) {
	c := blockableCircuit()
	f := newTestFinder(t, c, nil)
	f.run()
	filled := f.fill()
	if filled < 0 {
		t.Fatal("negative fill count")
	}
	for _, n := range c.CombInputs() {
		if f.controlled[n] && f.assign[n] == logic.X {
			t.Errorf("controlled input %s left unassigned after fill", c.Nets[n].Name)
		}
	}
}

func TestFillPicksCheaperCompletion(t *testing.T) {
	// Single inverter from a PI: in=1 leaks 204, in=0 leaks 220. The fill
	// must choose 1.
	c := netlist.New("inv")
	c.AddPI("a")
	c.AddGate(logic.Not, "o", "a")
	c.MarkPO("o")
	c.MustFreeze()
	opts := ProposedOptions()
	opts.ObsDirected = false
	opts.FillTrials = 64
	f := newFinder(c, &opts, nil, nil, rand.New(rand.NewSource(2)))
	f.run()
	f.fill()
	aID, _ := c.NetByName("a")
	if f.assign[aID] != logic.One {
		t.Errorf("fill chose a=%v; a=1 is the cheaper inverter state", f.assign[aID])
	}
}

func TestClassifyBlockedBeatsFailed(t *testing.T) {
	// Once an input carries the controlling value, a previously failed
	// gate must be reported blocked (the blocked check precedes the
	// failed check).
	c := blockableCircuit()
	f := newTestFinder(t, c, nil)
	f.imply()
	f.classify()
	var gi netlist.GateID = -1
	for i := range c.Gates {
		if c.Gates[i].Type == logic.Nand {
			gi = netlist.GateID(i)
		}
	}
	f.failed[gi] = true // pretend blocking failed earlier
	aID, _ := c.NetByName("a")
	f.assign[aID] = logic.Zero
	f.imply()
	f.classify()
	xID, _ := c.NetByName("x")
	if f.trans[xID] {
		t.Error("controlling value must override the failed flag")
	}
}

// TestJustifyStress drives justify on random targets across random
// circuits: success must leave the target implied at the wanted value,
// failure must roll back every assignment it made.
func TestJustifyStress(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		p := iscas.Profile{
			Name: "jst", PIs: 2 + rng.Intn(5), POs: 2, FFs: 2 + rng.Intn(5),
			Gates: 30 + rng.Intn(60), Seed: rng.Int63(),
		}
		c, err := iscas.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		muxable := make([]bool, c.NumFFs())
		for i := range muxable {
			muxable[i] = rng.Intn(2) == 0
		}
		opts := ProposedOptions()
		opts.ObsDirected = false
		f := newFinder(c, &opts, muxable, nil, rng)
		f.imply()
		f.classify()
		for attempt := 0; attempt < 30; attempt++ {
			n := netlist.NetID(rng.Intn(c.NumNets()))
			if f.val[n] != logic.X {
				continue
			}
			want := logic.FromBool(rng.Intn(2) == 1)
			before := append([]logic.Value(nil), f.assign...)
			ok := f.justify(n, want)
			if ok {
				if f.val[n] != want {
					t.Fatalf("justify claimed success but %s = %v, want %v",
						c.Nets[n].Name, f.val[n], want)
				}
				// Commitments must be monotone: nothing previously
				// assigned may have changed.
				for i, v := range before {
					if v != logic.X && f.assign[i] != v {
						t.Fatalf("justify changed a committed assignment")
					}
				}
			} else {
				for i := range before {
					if f.assign[i] != before[i] {
						t.Fatalf("failed justify leaked assignment on net %d", i)
					}
				}
			}
		}
	}
}

// FuzzFinderImplyEquivalence drives random circuits through random
// sequences of set, flip and undo on the controlled inputs and requires
// the event-driven imply to leave every net where a full pass on a fresh
// finder with the same assignment puts it. `make fuzz-equiv` runs this
// continuously; the seed corpus runs on every `go test`.
func FuzzFinderImplyEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40))
	f.Add(int64(2), uint8(0xFF), uint8(200))
	f.Add(int64(99), uint8(0b1010), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, muxMask, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := randomMCCircuit(rng)
		opts := ProposedOptions()
		muxable := make([]bool, c.NumFFs())
		for fi := range muxable {
			muxable[fi] = muxMask>>(uint(fi)%8)&1 == 1
		}
		fd := newFinder(c, &opts, muxable, nil, rng)
		var ctl []netlist.NetID
		for _, n := range fd.inputs {
			if fd.controlled[n] {
				ctl = append(ctl, n)
			}
		}
		fd.imply()
		for step := 0; step < int(steps); step++ {
			// One to three edits per imply, as a justify flip followed
			// by undos of deeper decisions would make.
			for k := rng.Intn(3); k >= 0; k-- {
				n := ctl[rng.Intn(len(ctl))]
				switch rng.Intn(3) {
				case 0:
					fd.assign[n] = logic.FromBool(rng.Intn(2) == 1)
				case 1:
					fd.assign[n] = fd.assign[n].Not()
				default:
					fd.assign[n] = logic.X
				}
			}
			fd.imply()
			ref := newFinder(c, &opts, muxable, nil, nil)
			copy(ref.assign, fd.assign)
			ref.implyFull()
			for n := range ref.val {
				if fd.val[n] != ref.val[n] {
					t.Fatalf("seed=%d mux=%x step %d: net %s = %v, full pass gives %v",
						seed, muxMask, step, c.Nets[n].Name, fd.val[n], ref.val[n])
				}
			}
		}
	})
}
