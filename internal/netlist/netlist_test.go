package netlist

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/logic"
)

// buildS27ish builds a small sequential circuit resembling ISCAS89 s27:
// 4 PIs, 1 PO, 3 DFFs, a handful of gates.
func buildS27ish(t *testing.T) *Circuit {
	t.Helper()
	c := New("s27ish")
	for _, pi := range []string{"G0", "G1", "G2", "G3"} {
		c.AddPI(pi)
	}
	c.AddFF("ff1", "G5", "G10")
	c.AddFF("ff2", "G6", "G11")
	c.AddFF("ff3", "G7", "G13")
	c.AddGate(logic.Not, "G14", "G0")
	c.AddGate(logic.Not, "G17", "G11")
	c.AddGate(logic.Nand, "G8", "G14", "G6")
	c.AddGate(logic.Nor, "G15", "G12", "G8")
	c.AddGate(logic.Nor, "G16", "G3", "G8")
	c.AddGate(logic.Nor, "G12", "G1", "G7")
	c.AddGate(logic.Nor, "G13", "G2", "G12")
	c.AddGate(logic.Nor, "G11", "G5", "G16")
	c.AddGate(logic.Nor, "G10", "G14", "G11")
	c.AddGate(logic.Nor, "G9", "G16", "G15")
	c.MarkPO("G17")
	if err := c.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return c
}

func TestFreezeBasics(t *testing.T) {
	c := buildS27ish(t)
	if got := c.NumGates(); got != 10 {
		t.Errorf("NumGates = %d, want 10", got)
	}
	if got := c.NumFFs(); got != 3 {
		t.Errorf("NumFFs = %d, want 3", got)
	}
	if len(c.PIs) != 4 || len(c.POs) != 1 {
		t.Errorf("PIs/POs = %d/%d, want 4/1", len(c.PIs), len(c.POs))
	}
	if !c.Frozen() {
		t.Error("circuit should be frozen")
	}
}

func TestTopoOrderRespectsDependencies(t *testing.T) {
	c := buildS27ish(t)
	pos := make(map[GateID]int)
	for i, g := range c.Topo() {
		pos[g] = i
	}
	if len(pos) != c.NumGates() {
		t.Fatalf("topo order has %d gates, want %d", len(pos), c.NumGates())
	}
	for gi, g := range c.Gates {
		for _, in := range g.Inputs {
			if d := c.Nets[in].Driver; d != InvalidGate {
				if pos[d] >= pos[GateID(gi)] {
					t.Errorf("gate %d precedes its driver %d in topo order", gi, d)
				}
			}
		}
	}
}

func TestLevelsMonotone(t *testing.T) {
	c := buildS27ish(t)
	for gi, g := range c.Gates {
		for _, in := range g.Inputs {
			if d := c.Nets[in].Driver; d != InvalidGate {
				if c.Level(d) >= c.Level(GateID(gi)) {
					t.Errorf("level(driver %d)=%d >= level(gate %d)=%d",
						d, c.Level(d), gi, c.Level(GateID(gi)))
				}
			}
		}
	}
	if c.Depth() <= 0 {
		t.Error("Depth should be positive")
	}
}

func TestFanoutLists(t *testing.T) {
	c := buildS27ish(t)
	// G8 feeds G15 and G16.
	id, ok := c.NetByName("G8")
	if !ok {
		t.Fatal("net G8 missing")
	}
	if got := len(c.Nets[id].Fanout); got != 2 {
		t.Errorf("fanout(G8) = %d, want 2", got)
	}
	// G11 feeds gates G17, G10 and flop ff2.
	id, _ = c.NetByName("G11")
	if got := len(c.Nets[id].Fanout); got != 2 {
		t.Errorf("gate fanout(G11) = %d, want 2", got)
	}
	if got := len(c.Nets[id].FanoutFF); got != 1 {
		t.Errorf("FF fanout(G11) = %d, want 1", got)
	}
}

func TestCombInputsAndPseudo(t *testing.T) {
	c := buildS27ish(t)
	if got := len(c.PseudoInputs()); got != 3 {
		t.Errorf("PseudoInputs = %d, want 3", got)
	}
	if got := len(c.PseudoOutputs()); got != 3 {
		t.Errorf("PseudoOutputs = %d, want 3", got)
	}
	if got := len(c.CombInputs()); got != 7 {
		t.Errorf("CombInputs = %d, want 7", got)
	}
	for _, q := range c.PseudoInputs() {
		if !c.Nets[q].IsPPI() {
			t.Errorf("net %s should be a pseudo-input", c.Nets[q].Name)
		}
	}
}

func TestUndrivenNetRejected(t *testing.T) {
	c := New("bad")
	c.AddPI("a")
	c.AddGate(logic.Nand, "out", "a", "floating")
	if err := c.Freeze(); err == nil {
		t.Fatal("Freeze accepted an undriven net")
	}
}

// TestFreezeRetryRebuildsFanouts: a Freeze that fails part-way, a fix-up
// mutation and a second Freeze leave every fanout list exact, with no
// entry left over from the failed attempt.
func TestFreezeRetryRebuildsFanouts(t *testing.T) {
	c := New("retry")
	c.AddPI("a")
	c.AddFF("ff", "q", "out")
	c.AddGate(logic.Nand, "out", "a", "floating")
	c.MarkPO("out")
	if err := c.Freeze(); err == nil {
		t.Fatal("Freeze accepted an undriven net")
	}
	c.AddPI("floating")
	if err := c.Freeze(); err != nil {
		t.Fatalf("Freeze after the fix-up: %v", err)
	}
	for _, name := range []string{"a", "floating"} {
		id, _ := c.NetByName(name)
		if got := c.Nets[id].Fanout; len(got) != 1 || got[0] != 0 {
			t.Errorf("fanout(%s) = %v, want [0]", name, got)
		}
	}
	for _, name := range []string{"out", "q"} {
		id, _ := c.NetByName(name)
		if got := c.Nets[id].Fanout; len(got) != 0 {
			t.Errorf("fanout(%s) = %v, want none", name, got)
		}
	}
	id, _ := c.NetByName("out")
	if got := c.Nets[id].FanoutFF; len(got) != 1 || got[0] != 0 {
		t.Errorf("FF fanout(out) = %v, want [0]", got)
	}
}

func TestCombinationalCycleRejected(t *testing.T) {
	c := New("cyc")
	c.AddPI("a")
	c.AddGate(logic.Nand, "x", "a", "y")
	c.AddGate(logic.Nand, "y", "a", "x")
	if err := c.Freeze(); err == nil {
		t.Fatal("Freeze accepted a combinational cycle")
	}
	if !strings.Contains(c.Freeze().Error(), "cycle") {
		t.Errorf("error should mention cycle, got %v", c.Freeze())
	}
}

func TestCycleThroughFFAccepted(t *testing.T) {
	// Sequential loops (through a flop) are fine.
	c := New("seqloop")
	c.AddPI("a")
	c.AddFF("ff", "q", "d")
	c.AddGate(logic.Nand, "d", "a", "q")
	c.MarkPO("d")
	if err := c.Freeze(); err != nil {
		t.Fatalf("Freeze rejected a sequential loop: %v", err)
	}
}

func TestBadArityRejected(t *testing.T) {
	c := New("arity")
	c.AddPI("a")
	c.AddPI("b")
	c.AddGateNets(logic.Not, c.AddNet("x"), c.ensureNet("a"), c.ensureNet("b"))
	if err := c.Freeze(); err == nil {
		t.Fatal("Freeze accepted a 2-input NOT")
	}
	c2 := New("arity2")
	c2.AddPI("a")
	c2.AddGateNets(logic.Nand, c2.AddNet("x"), c2.ensureNet("a"))
	if err := c2.Freeze(); err == nil {
		t.Fatal("Freeze accepted a 1-input NAND")
	}
	c3 := New("arity3")
	c3.AddPI("a")
	c3.AddGateNets(logic.Mux2, c3.AddNet("x"), c3.ensureNet("a"), c3.ensureNet("a"))
	if err := c3.Freeze(); err == nil {
		t.Fatal("Freeze accepted a 2-input MUX2")
	}
}

func TestDoubleDrivenInputRejected(t *testing.T) {
	c := New("dd")
	c.AddPI("a")
	c.AddPI("b")
	c.AddGate(logic.Not, "a", "b") // drives a PI
	if err := c.Freeze(); err == nil {
		t.Fatal("Freeze accepted a gate driving a primary input")
	}
}

// TestMultiplyDrivenNetRejected: a net with a second driver (two gates,
// two flip-flops, or a flip-flop on a primary input) fails Freeze with an
// error naming the net, where AddGate would otherwise let the later gate
// silently replace the earlier one.
func TestMultiplyDrivenNetRejected(t *testing.T) {
	cases := []struct {
		name, net string
		build     func(c *Circuit)
	}{
		{"gate-gate", "z", func(c *Circuit) {
			c.AddFF("ff", "q", "z")
			c.AddGate(logic.And, "z", "a", "q")
			c.AddGate(logic.Or, "z", "a", "q")
		}},
		{"ff-ff", "q", func(c *Circuit) {
			c.AddFF("ff1", "q", "z")
			c.AddFF("ff2", "q", "a")
			c.AddGate(logic.And, "z", "a", "q")
		}},
		{"ff-pi", "a", func(c *Circuit) {
			c.AddFF("ff", "a", "z")
			c.AddGate(logic.And, "z", "a", "a")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New("dd")
			c.AddPI("a")
			tc.build(c)
			c.MarkPO("z")
			err := c.Freeze()
			if err == nil {
				t.Fatal("Freeze accepted a net with two drivers")
			}
			if want := fmt.Sprintf("net %q has more than one driver", tc.net); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not say %s", err, want)
			}
		})
	}
}

func TestCloneIndependence(t *testing.T) {
	c := buildS27ish(t)
	cp := c.Clone()
	if err := cp.Freeze(); err != nil {
		t.Fatalf("clone Freeze: %v", err)
	}
	if cp.NumGates() != c.NumGates() || cp.NumFFs() != c.NumFFs() {
		t.Fatal("clone sizes differ")
	}
	// Mutating the clone must not affect the original.
	cp.AddGate(logic.Not, "extra", "G0")
	if cp.NumGates() != c.NumGates()+1 {
		t.Fatal("AddGate on clone did not grow clone")
	}
	if err := cp.Freeze(); err != nil {
		t.Fatalf("refreeze clone: %v", err)
	}
	if c.NumGates() != 10 {
		t.Fatal("original mutated by clone edit")
	}
	// Same topology.
	for i := range c.Gates {
		if c.Gates[i].Type != cp.Gates[i].Type || c.Gates[i].Output != cp.Gates[i].Output {
			t.Fatalf("clone gate %d differs", i)
		}
	}
}

func TestMutationUnfreezes(t *testing.T) {
	c := buildS27ish(t)
	c.AddGate(logic.Not, "n1", "G0")
	if c.Frozen() {
		t.Fatal("AddGate should unfreeze")
	}
	if err := c.Freeze(); err != nil {
		t.Fatalf("refreeze: %v", err)
	}
	// Fanout must be rebuilt, not duplicated.
	id, _ := c.NetByName("G0")
	if got := len(c.Nets[id].Fanout); got != 2 {
		t.Errorf("fanout(G0) after refreeze = %d, want 2", got)
	}
}

func TestUseBeforeFreezePanics(t *testing.T) {
	c := New("x")
	c.AddPI("a")
	defer func() {
		if recover() == nil {
			t.Fatal("Topo before Freeze did not panic")
		}
	}()
	c.Topo()
}

func TestComputeStats(t *testing.T) {
	c := buildS27ish(t)
	s := c.ComputeStats()
	if s.Gates != 10 || s.FFs != 3 || s.PIs != 4 || s.POs != 1 {
		t.Errorf("stats wrong: %+v", s)
	}
	if s.ByType[logic.Nor] != 7 || s.ByType[logic.Not] != 2 || s.ByType[logic.Nand] != 1 {
		t.Errorf("ByType wrong: %v", s.ByType)
	}
	if s.Depth != c.Depth() {
		t.Errorf("stats depth %d != %d", s.Depth, c.Depth())
	}
	if !strings.Contains(s.String(), "s27ish") {
		t.Errorf("Stats.String missing name: %q", s.String())
	}
}

func TestWriteDOT(t *testing.T) {
	c := buildS27ish(t)
	var sb strings.Builder
	if err := c.WriteDOT(&sb); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := sb.String()
	for _, frag := range []string{"digraph", "ff1", "NAND", "G17"} {
		if !strings.Contains(out, frag) {
			t.Errorf("DOT output missing %q", frag)
		}
	}
}

func TestSortedNetNames(t *testing.T) {
	c := buildS27ish(t)
	names := c.SortedNetNames()
	if len(names) != c.NumNets() {
		t.Fatalf("got %d names, want %d", len(names), c.NumNets())
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("names not sorted: %q > %q", names[i-1], names[i])
		}
	}
}

func TestNetByNameMissing(t *testing.T) {
	c := buildS27ish(t)
	if _, ok := c.NetByName("nope"); ok {
		t.Error("NetByName found a missing net")
	}
}
