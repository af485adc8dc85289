package scan

import (
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// build3FF returns a circuit with 3 flops, 2 PIs and a little logic.
func build3FF(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("c3")
	c.AddPI("a")
	c.AddPI("b")
	c.AddFF("f0", "q0", "d0")
	c.AddFF("f1", "q1", "d1")
	c.AddFF("f2", "q2", "d2")
	c.AddGate(logic.Nand, "d0", "a", "q2")
	c.AddGate(logic.Nor, "d1", "q0", "b")
	c.AddGate(logic.Not, "d2", "q1")
	c.MarkPO("d2")
	c.MustFreeze()
	return c
}

func TestChainBasics(t *testing.T) {
	c := build3FF(t)
	ch := New(c)
	if ch.NumChains() != 1 || ch.MaxLength() != 3 {
		t.Fatalf("NumChains, MaxLength = %d, %d, want 1, 3", ch.NumChains(), ch.MaxLength())
	}
	if !slices.Equal(ch.Groups[0], []int{0, 1, 2}) {
		t.Errorf("default order = %v, want netlist order", ch.Groups[0])
	}
}

func TestNewWithOrderValidation(t *testing.T) {
	c := build3FF(t)
	if _, err := NewWithOrder(c, []int{0, 1}); err == nil {
		t.Error("accepted short order")
	}
	if _, err := NewWithOrder(c, []int{0, 1, 1}); err == nil {
		t.Error("accepted non-permutation")
	}
	if _, err := NewWithOrder(c, []int{0, 1, 5}); err == nil {
		t.Error("accepted out-of-range entry")
	}
	order := []int{2, 0, 1}
	ch, err := NewWithOrder(c, order)
	if err != nil {
		t.Fatalf("valid order rejected: %v", err)
	}
	order[0] = 1
	if !slices.Equal(ch.Groups[0], []int{2, 0, 1}) {
		t.Errorf("chain order = %v, want a copy of [2 0 1]", ch.Groups[0])
	}
}

// TestShiftInLoadsPattern verifies the stream-order convention: after the
// shift-in phase the chain holds exactly the pattern state, FF-indexed.
func TestShiftInLoadsPattern(t *testing.T) {
	c := build3FF(t)
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
		ch, err := NewWithOrder(c, order)
		if err != nil {
			t.Fatal(err)
		}
		pat := Pattern{PI: []bool{false, true}, State: []bool{true, false, true}}
		var lastPPI []bool
		hooks := Hooks{
			Capture: func(pi, ppi []bool) []bool {
				lastPPI = append([]bool(nil), ppi...)
				return make([]bool, 3)
			},
		}
		if err := ch.Run([]Pattern{pat}, Traditional(c), hooks); err != nil {
			t.Fatal(err)
		}
		for f := range pat.State {
			if lastPPI[f] != pat.State[f] {
				t.Errorf("order %v: flop %d loaded %v, want %v", order, f, lastPPI[f], pat.State[f])
			}
		}
	}
}

func TestShiftCycleCount(t *testing.T) {
	c := build3FF(t)
	ch := New(c)
	pats := []Pattern{
		{PI: []bool{false, false}, State: []bool{true, true, false}},
		{PI: []bool{true, false}, State: []bool{false, true, true}},
	}
	cycles := 0
	hooks := Hooks{
		ShiftCycle: func(pi, ppi []bool) { cycles++ },
		Capture:    func(pi, ppi []bool) []bool { return make([]bool, 3) },
	}
	if err := ch.Run(pats, Traditional(c), hooks); err != nil {
		t.Fatal(err)
	}
	// 2 patterns * 3 shifts + 3 flush shifts.
	if cycles != 9 {
		t.Errorf("shift cycles = %d, want 9", cycles)
	}
}

func TestMuxFreezesPseudoInput(t *testing.T) {
	c := build3FF(t)
	ch := New(c)
	cfg := Traditional(c)
	cfg.Muxed[1] = true
	cfg.MuxVal[1] = true
	pat := Pattern{PI: []bool{false, false}, State: []bool{true, false, true}}
	sawChange := false
	hooks := Hooks{
		ShiftCycle: func(pi, ppi []bool) {
			if ppi[1] != true {
				sawChange = true
			}
		},
		Capture: func(pi, ppi []bool) []bool {
			// At capture the MUX switches back to the flop: the loaded
			// state, not the frozen constant, must be visible.
			if ppi[1] != pat.State[1] {
				t.Errorf("capture saw frozen value instead of chain content")
			}
			return make([]bool, 3)
		},
	}
	if err := ch.Run([]Pattern{pat}, cfg, hooks); err != nil {
		t.Fatal(err)
	}
	if sawChange {
		t.Error("muxed pseudo-input changed during shifting")
	}
}

func TestPIHoldValues(t *testing.T) {
	c := build3FF(t)
	ch := New(c)
	cfg := Traditional(c)
	cfg.PIHold[0] = logic.One
	cfg.PIHold[1] = logic.X // follow pattern bit
	pat := Pattern{PI: []bool{false, true}, State: []bool{false, false, false}}
	hooks := Hooks{
		ShiftCycle: func(pi, ppi []bool) {
			if pi[0] != true {
				t.Error("held PI 0 not at forced value")
			}
			if pi[1] != true {
				t.Error("X-hold PI 1 should follow the pattern bit")
			}
		},
	}
	if err := ch.Run([]Pattern{pat}, cfg, hooks); err != nil {
		t.Fatal(err)
	}
}

func TestResponseShiftsOut(t *testing.T) {
	// With a capture hook returning a known response, the first shift
	// cycle of the next pattern must expose the response shifted by one.
	c := build3FF(t)
	ch := New(c)
	resp := []bool{true, true, false}
	pats := []Pattern{
		{PI: []bool{false, false}, State: []bool{false, false, false}},
		{PI: []bool{false, false}, State: []bool{false, false, false}},
	}
	cycle := 0
	var firstAfterCapture []bool
	hooks := Hooks{
		ShiftCycle: func(pi, ppi []bool) {
			cycle++
			if cycle == 4 { // first shift of pattern 2
				firstAfterCapture = append([]bool(nil), ppi...)
			}
		},
		Capture: func(pi, ppi []bool) []bool { return resp },
	}
	if err := ch.Run(pats, Traditional(c), hooks); err != nil {
		t.Fatal(err)
	}
	// After one shift: position0 = new bit (false), position1 = old resp
	// at position0 (flop0=true), position2 = old resp at pos1 (flop1=true).
	want := []bool{false, true, true}
	for f, v := range want {
		if firstAfterCapture[f] != v {
			t.Errorf("flop %d after 1 shift = %v, want %v (got %v)", f, firstAfterCapture[f], v, firstAfterCapture)
		}
	}
}

func TestRunValidatesSizes(t *testing.T) {
	c := build3FF(t)
	ch := New(c)
	bad := Pattern{PI: []bool{true}, State: []bool{false, false, false}}
	if err := ch.Run([]Pattern{bad}, Traditional(c), Hooks{}); err == nil {
		t.Error("accepted short PI vector")
	}
	cfg := Traditional(c)
	cfg.PIHold = cfg.PIHold[:1]
	good := Pattern{PI: []bool{true, false}, State: []bool{false, false, false}}
	if err := ch.Run([]Pattern{good}, cfg, Hooks{}); err == nil {
		t.Error("accepted bad config")
	}
	cfg2 := Traditional(c)
	badCap := Hooks{Capture: func(pi, ppi []bool) []bool { return nil }}
	if err := ch.Run([]Pattern{good}, cfg2, badCap); err == nil {
		t.Error("accepted short capture response")
	}
}

func TestMuxCount(t *testing.T) {
	c := build3FF(t)
	cfg := Traditional(c)
	if cfg.MuxCount() != 0 {
		t.Error("fresh config has muxes")
	}
	cfg.Muxed[0] = true
	cfg.Muxed[2] = true
	if cfg.MuxCount() != 2 {
		t.Errorf("MuxCount = %d, want 2", cfg.MuxCount())
	}
}

func TestNoPatternsNoCycles(t *testing.T) {
	c := build3FF(t)
	ch := New(c)
	cycles := 0
	hooks := Hooks{ShiftCycle: func(pi, ppi []bool) { cycles++ }}
	if err := ch.Run(nil, Traditional(c), hooks); err != nil {
		t.Fatal(err)
	}
	if cycles != 0 {
		t.Errorf("empty run produced %d cycles", cycles)
	}
}
