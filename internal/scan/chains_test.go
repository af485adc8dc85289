package scan

import (
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

func build5FF(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("c5")
	c.AddPI("a")
	for i := 0; i < 5; i++ {
		q := "q" + string(rune('0'+i))
		d := "d" + string(rune('0'+i))
		c.AddFF("f"+string(rune('0'+i)), q, d)
	}
	c.AddGate(logic.Nand, "d0", "a", "q4")
	c.AddGate(logic.Not, "d1", "q0")
	c.AddGate(logic.Nor, "d2", "q1", "a")
	c.AddGate(logic.Not, "d3", "q2")
	c.AddGate(logic.Nand, "d4", "q3", "q0")
	c.MarkPO("d4")
	c.MustFreeze()
	return c
}

func TestNewChainsBalanced(t *testing.T) {
	c := build5FF(t)
	cs, err := NewChains(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumChains() != 2 {
		t.Fatalf("NumChains = %d", cs.NumChains())
	}
	if len(cs.Groups[0]) != 3 || len(cs.Groups[1]) != 2 {
		t.Errorf("unbalanced groups: %v", cs.Groups)
	}
	if cs.MaxLength() != 3 {
		t.Errorf("MaxLength = %d, want 3", cs.MaxLength())
	}
}

func TestNewChainsClampsAndValidates(t *testing.T) {
	c := build5FF(t)
	if _, err := NewChains(c, 0); err == nil {
		t.Error("accepted zero chains")
	}
	cs, err := NewChains(c, 99)
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumChains() != 5 {
		t.Errorf("chain count should clamp to flop count, got %d", cs.NumChains())
	}
	if _, err := NewChainsWithGroups(c, [][]int{{0, 1}, {1, 2, 3, 4}}); err == nil {
		t.Error("accepted duplicate flop")
	}
	if _, err := NewChainsWithGroups(c, [][]int{{0, 1, 2}}); err == nil {
		t.Error("accepted missing flops")
	}
}

// TestChainsLoadPattern: after shift-in, every flop must hold its pattern
// bit regardless of the partition.
func TestChainsLoadPattern(t *testing.T) {
	c := build5FF(t)
	pat := Pattern{PI: []bool{true}, State: []bool{true, false, true, true, false}}
	for chains := 1; chains <= 5; chains++ {
		cs, err := NewChains(c, chains)
		if err != nil {
			t.Fatal(err)
		}
		var loaded []bool
		hooks := Hooks{Capture: func(pi, ppi []bool) []bool {
			loaded = append([]bool(nil), ppi...)
			return make([]bool, 5)
		}}
		if err := cs.Run([]Pattern{pat}, Traditional(c), hooks); err != nil {
			t.Fatal(err)
		}
		for f, want := range pat.State {
			if loaded[f] != want {
				t.Errorf("%d chains: flop %d loaded %v, want %v", chains, f, loaded[f], want)
			}
		}
	}
}

// TestChainsCutShiftCycles: shift cycles per pattern equal the longest
// chain, so doubling the chains roughly halves test time.
func TestChainsCutShiftCycles(t *testing.T) {
	c := build5FF(t)
	count := func(chains int) int {
		cs, err := NewChains(c, chains)
		if err != nil {
			t.Fatal(err)
		}
		cycles := 0
		hooks := Hooks{
			ShiftCycle: func(pi, ppi []bool) { cycles++ },
			Capture:    func(pi, ppi []bool) []bool { return make([]bool, 5) },
		}
		pats := []Pattern{
			{PI: []bool{false}, State: []bool{true, false, true, false, true}},
			{PI: []bool{true}, State: []bool{false, true, false, true, false}},
		}
		if err := cs.Run(pats, Traditional(c), hooks); err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	one := count(1)  // 2 patterns * 5 + 5 flush = 15
	five := count(5) // 2 * 1 + 1 = 3
	if one != 15 || five != 3 {
		t.Errorf("cycles: 1 chain %d (want 15), 5 chains %d (want 3)", one, five)
	}
}

func TestChainsMuxedFlopsFrozen(t *testing.T) {
	c := build5FF(t)
	cs, err := NewChains(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Traditional(c)
	cfg.Muxed[2] = true
	cfg.MuxVal[2] = true
	pat := Pattern{PI: []bool{false}, State: []bool{true, true, false, true, true}}
	hooks := Hooks{ShiftCycle: func(pi, ppi []bool) {
		if !ppi[2] {
			t.Error("muxed flop leaked chain content")
		}
	}}
	if err := cs.Run([]Pattern{pat}, cfg, hooks); err != nil {
		t.Fatal(err)
	}
}

// TestRunInvariants pins two properties of Run that the packed
// measurement kernel relies on, for one chain and for two chains of
// unequal length: every capture applies exactly (pattern.PI,
// pattern.State), and the held and frozen entries of the ShiftCycle
// slices keep their constants across captures, whatever the capture
// loads into the chains.
func TestRunInvariants(t *testing.T) {
	c := build3FF(t)
	cfg := Traditional(c)
	cfg.PIHold[0] = logic.One
	cfg.Muxed[1], cfg.MuxVal[1] = true, true
	cfg.Muxed[2] = true // frozen at 0
	pats := []Pattern{
		{PI: []bool{false, true}, State: []bool{true, false, true}},
		{PI: []bool{true, false}, State: []bool{false, true, false}},
		{PI: []bool{false, false}, State: []bool{true, true, true}},
	}
	for n := 1; n <= 2; n++ { // 2 chains: 2 and 1 flops
		cs, err := NewChains(c, n)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		hooks := Hooks{
			ShiftCycle: func(pi, ppi []bool) {
				if !pi[0] || !ppi[1] || ppi[2] {
					t.Errorf("%d chains: shift cycle after %d captures saw pi=%v ppi=%v, want held pi[0]=1, frozen ppi[1]=1 ppi[2]=0",
						n, k, pi, ppi)
				}
			},
			Capture: func(pi, ppi []bool) []bool {
				p := pats[k]
				if !slices.Equal(pi, p.PI) || !slices.Equal(ppi, p.State) {
					t.Errorf("%d chains: capture %d applied pi=%v ppi=%v, want %v %v",
						n, k, pi, ppi, p.PI, p.State)
				}
				k++
				// The opposite of every constant.
				return []bool{true, false, true}
			},
		}
		if err := cs.Run(pats, cfg, hooks); err != nil {
			t.Fatal(err)
		}
		if k != len(pats) {
			t.Errorf("%d chains: %d captures for %d patterns", n, k, len(pats))
		}
	}
}
