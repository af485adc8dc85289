package vcd

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// handwrittenVCD is a minimal hand-written dump: 5 timestamps = 4 steps,
// a toggling 3 times, b never, and a wide vector.
const handwrittenVCD = `$date today $end
$timescale 1ns $end
$scope module top $end
$var wire 1 ! a $end
$var wire 1 " b $end
$var wire 4 # bus [3:0] $end
$upscope $end
$enddefinitions $end
#0
0!
1"
b1010 #
#1
1!
1"
#2
0!
#3
1!
b0101 #
#4
`

// unknownsVCD toggles a through x and z, which break toggle chains.
const unknownsVCD = `$var wire 1 ! a $end
$enddefinitions $end
#0
x!
#1
1!
#2
z!
#3
0!
#4
1!
`

// malformedVCDs walks the malformed-input space: ReadActivity rejects
// each one.
var malformedVCDs = []struct {
	name string
	src  string
}{
	{"empty", ""},
	{"no signals", "$enddefinitions $end\n#0\n#1\n"},
	{"one timestamp", "$var wire 1 ! a $end\n$enddefinitions $end\n#0\n0!\n"},
	{"undeclared id", "$var wire 1 ! a $end\n$enddefinitions $end\n#0\n0?\n#1\n"},
	{"bad var", "$var wire\n$enddefinitions $end\n#0\n#1\n"},
	{"bad width", "$var wire zero ! a $end\n$enddefinitions $end\n#0\n#1\n"},
	{"dup id", "$var wire 1 ! a $end\n$var wire 1 ! b $end\n$enddefinitions $end\n#0\n#1\n"},
	{"garbage line", "$var wire 1 ! a $end\n$enddefinitions $end\n#0\nhello\n#1\n"},
	{"bad timestamp", "$var wire 1 ! a $end\n$enddefinitions $end\n#zero\n#1\n"},
	{"only wide vectors", "$var wire 4 ! bus $end\n$enddefinitions $end\n#0\n#1\n"},
}

// TestReadActivityHandwritten checks toggle counting on a minimal
// hand-written dump: 5 timestamps = 4 steps.
func TestReadActivityHandwritten(t *testing.T) {
	act, err := ReadActivity(strings.NewReader(handwrittenVCD))
	if err != nil {
		t.Fatalf("ReadActivity: %v", err)
	}
	if got := act["a"]; got != 3.0/4.0 {
		t.Errorf("a: got %v, want 0.75", got)
	}
	if got := act["b"]; got != 0 {
		t.Errorf("b: got %v, want 0 (never toggles)", got)
	}
	if _, ok := act["bus"]; ok {
		t.Errorf("bus: wide vector should not produce an activity entry")
	}
}

// TestReadActivityUnknowns checks that x/z break toggle chains rather than
// counting as transitions.
func TestReadActivityUnknowns(t *testing.T) {
	act, err := ReadActivity(strings.NewReader(unknownsVCD))
	if err != nil {
		t.Fatalf("ReadActivity: %v", err)
	}
	// Only the known-to-known 0->1 step at #4 toggles; x->1 and z->0 do not.
	if got := act["a"]; got != 1.0/4.0 {
		t.Errorf("a: got %v, want 0.25", got)
	}
}

// TestReadActivityErrors walks the malformed-input space.
func TestReadActivityErrors(t *testing.T) {
	for _, tc := range malformedVCDs {
		if _, err := ReadActivity(strings.NewReader(tc.src)); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

// nandDump is what Dumper writes for a NAND of inputs a and b over four
// ticks: a toggles every cycle, b stays 0, y = !(a&&b) stays 1.
func nandDump(tb testing.TB) []byte {
	tb.Helper()
	c := netlist.New("t")
	c.AddPI("a")
	c.AddPI("b")
	c.AddGate(logic.Nand, "y", "a", "b")
	c.MarkPO("y")
	c.MustFreeze()

	var buf bytes.Buffer
	d, err := NewDumper(&buf, c, nil)
	if err != nil {
		tb.Fatalf("NewDumper: %v", err)
	}
	na, _ := c.NetByName("a")
	nb, _ := c.NetByName("b")
	ny, _ := c.NetByName("y")
	state := make([]bool, c.NumNets())
	for i := 0; i < 4; i++ {
		state[na] = i%2 == 1
		state[nb] = false
		state[ny] = true
		if err := d.Tick(state); err != nil {
			tb.Fatalf("Tick: %v", err)
		}
	}
	if err := d.Close(); err != nil {
		tb.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// TestReadActivityRoundTrip feeds a Dumper-produced dump back through the
// reader and checks the derived activities match the state sequence.
func TestReadActivityRoundTrip(t *testing.T) {
	act, err := ReadActivity(bytes.NewReader(nandDump(t)))
	if err != nil {
		t.Fatalf("ReadActivity: %v", err)
	}
	// 4 ticks + Close's final stamp = 5 timestamps = 4 steps; a toggles 3x.
	if got := act["a"]; got != 3.0/4.0 {
		t.Errorf("a: got %v, want 0.75", got)
	}
	if got := act["b"]; got != 0 {
		t.Errorf("b: got %v, want 0", got)
	}
	if got := act["y"]; got != 0 {
		t.Errorf("y: got %v, want 0", got)
	}
}
