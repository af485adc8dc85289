package atpg

import (
	"reflect"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/testability"
)

// TestIncrementalPodemMatchesFull is the differential for the
// event-driven PODEM engine: for every fault, with and without SCOAP
// guidance, the incremental engine must reach the same status with the
// same backtrack count and (on success) the same input assignment as the
// whole-circuit re-implication engine, which evaluates through
// logic.Eval. Both engines are reused across faults, the way generation
// uses them, so reset hygiene is covered too. s1423 brings NAND4/NOR4
// gates, depth 28 and over a hundred aborted searches.
func TestIncrementalPodemMatchesFull(t *testing.T) {
	type namedCircuit struct {
		name string
		c    *netlist.Circuit
	}
	circuits := []namedCircuit{
		{"s27", loadS27(t)},
		{"s382", loadISCAS(t, "s382")},
		{"s510", loadISCAS(t, "s510")},
	}
	if !testing.Short() {
		circuits = append(circuits, namedCircuit{"s1423", loadISCAS(t, "s1423")})
	}
	for _, tc := range circuits {
		for _, useSCOAP := range []bool{false, true} {
			requirePodemModesAgree(t, tc.name, tc.c, useSCOAP, 64)
		}
	}
}

// requirePodemModesAgree runs every fault of c through one reused
// incremental engine and one reused full engine, and fails at the first
// fault where the status, the backtrack count or, on success, the input
// assignment differ.
func requirePodemModesAgree(t testing.TB, label string, c *netlist.Circuit, useSCOAP bool, maxBacktracks int) {
	t.Helper()
	var sc *testability.Analysis
	if useSCOAP {
		sc = testability.Compute(c)
	}
	env := newPodemEnv(c, sc, maxBacktracks)
	inc := env.newPodem(false)
	full := env.newPodem(true)
	for _, f := range AllFaults(c) {
		si := inc.run(f)
		sf := full.run(f)
		if si != sf || inc.backtracks != full.backtracks {
			t.Fatalf("%s scoap=%v fault %s: incremental (status=%d bt=%d) vs full (status=%d bt=%d)",
				label, useSCOAP, f.Name(c), si, inc.backtracks, sf, full.backtracks)
		}
		if si == podemSuccess && !reflect.DeepEqual(inc.assign, full.assign) {
			t.Fatalf("%s scoap=%v fault %s: assignments diverge",
				label, useSCOAP, f.Name(c))
		}
	}
}

// TestPodemEvalPairMatchesEval checks the fused dual-rail evaluation
// exhaustively: every gate type at every arity from 1 (NOT, BUF), 3
// (MUX2) or 2–5 (the rest), every (good, faulty) pair in {0,1,X}² on
// every input, against logic.Eval on each rail.
func TestPodemEvalPairMatchesEval(t *testing.T) {
	// The net byte is good | faulty<<2 in logic.Value's own encoding.
	if logic.X != 0 || logic.Zero != 1 || logic.One != 2 {
		t.Fatalf("logic.Value encoding X/Zero/One = %d/%d/%d, the dual-rail kernel needs 0/1/2",
			logic.X, logic.Zero, logic.One)
	}
	levels := []logic.Value{logic.X, logic.Zero, logic.One}
	for gt := logic.Buf; gt <= logic.Mux2; gt++ {
		lo, hi := 2, 5
		switch gt {
		case logic.Buf, logic.Not:
			lo, hi = 1, 1
		case logic.Mux2:
			lo, hi = 3, 3
		}
		for arity := lo; arity <= hi; arity++ {
			ins := make([]netlist.NetID, arity)
			for i := range ins {
				ins[i] = netlist.NetID(i)
			}
			val := make([]uint8, arity)
			good := make([]logic.Value, arity)
			faulty := make([]logic.Value, arity)
			digits := make([]int, 2*arity) // one base-3 digit per rail per input
			for {
				for i := 0; i < arity; i++ {
					good[i], faulty[i] = levels[digits[2*i]], levels[digits[2*i+1]]
					val[i] = pairOf(good[i], faulty[i])
				}
				want := pairOf(logic.Eval(gt, good), logic.Eval(gt, faulty))
				if got := evalPair(gt, ins, val); got != want {
					t.Fatalf("%v good=%v faulty=%v: evalPair = %04b, logic.Eval gives %04b",
						gt, good, faulty, got, want)
				}
				d := 0
				for d < len(digits) && digits[d] == len(levels)-1 {
					digits[d] = 0
					d++
				}
				if d == len(digits) {
					break
				}
				digits[d]++
			}
		}
	}
}

// TestPodemRunNoAllocs pins the incremental engine's steady state: once
// a pass over s1423's faults has grown the level buckets, the decision
// stack and the difference list, running a fault on the reused engine
// allocates nothing.
func TestPodemRunNoAllocs(t *testing.T) {
	c := loadISCAS(t, "s1423")
	p := newPodemEnv(c, testability.Compute(c), 64).newPodem(false)
	faults := AllFaults(c)
	for _, f := range faults {
		p.run(f)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for _, f := range faults {
			p.run(f)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per pass over %d faults, want 0", allocs, len(faults))
	}
}
