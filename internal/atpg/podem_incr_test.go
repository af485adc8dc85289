package atpg

import (
	"fmt"
	"reflect"
	"slices"
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
// logic.Eval, and every search step in between must agree
// (requirePodemModesAgree). Both engines are reused across faults, the
// way generation uses them, so reset hygiene is covered too. s1423
// brings NAND4/NOR4 gates, depth 28 and over a hundred aborted searches;
// s1196 and s1238 have many faults whose region is a small cone. The
// pass must exercise both the undo trail and the region cut.
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
		for _, name := range []string{"s1423", "s1196", "s1238"} {
			circuits = append(circuits, namedCircuit{name, loadISCAS(t, name)})
		}
	}
	var total podemModeStats
	for _, tc := range circuits {
		for _, useSCOAP := range []bool{false, true} {
			stats := requirePodemModesAgree(t, tc.name, tc.c, useSCOAP, 64)
			total.flips += stats.flips
			total.cut += stats.cut
		}
	}
	if total.flips == 0 || total.cut == 0 {
		t.Fatalf("%d implies after a rewind and flip, %d faults with a cut region; want both > 0",
			total.flips, total.cut)
	}
}

// podemModeStats counts what a requirePodemModesAgree pass exercised.
type podemModeStats struct {
	// flips is the number of compared implies that followed a trail
	// rewind and a flip.
	flips int
	// cut is the number of faults whose region R left out some gate.
	cut int
}

// requirePodemModesAgree drives every fault of c through one reused
// incremental engine and one reused full engine in lockstep, one search
// step at a time, run's loop unrolled. It fails at the first divergence:
//   - the incremental engine's region must be closed under fanin and
//     hold R = TFI(TFO(f)) as a whole-circuit pass computes it, and be
//     exactly R when the circuit has at most 256 sinks;
//   - after reset, the worklist must hold exactly the gates of the region
//     that the fault site feeds, whatever the previous fault left queued,
//     and after every imply it must be empty with no gate marked queued;
//   - after every imply, including the one right after each trail rewind
//     and flip, every net of R must carry the same dual-rail value in
//     both engines, the incremental difference set (marks, list
//     membership, observed count) must match those values, and both
//     engines must agree on detection;
//   - after every step, the statuses and the decision stacks must match,
//     and at the end the backtrack counts and, on success, the input
//     assignments.
func requirePodemModesAgree(t testing.TB, label string, c *netlist.Circuit, useSCOAP bool, maxBacktracks int) podemModeStats {
	t.Helper()
	var sc *testability.Analysis
	if useSCOAP {
		sc = testability.Compute(c)
	}
	env := newPodemEnv(c, sc, maxBacktracks)
	inc := env.newPodem(false)
	full := env.newPodem(true)
	sinks := 0
	for n := range c.Nets {
		if len(c.Nets[n].Fanout) == 0 {
			sinks++
		}
	}
	exact := sinks <= 64*maxReachWords
	var stats podemModeStats
	for _, f := range AllFaults(c) {
		where := func(step int) string {
			return fmt.Sprintf("%s scoap=%v fault %s step %d", label, useSCOAP, f.Name(c), step)
		}
		inR := regionOf(c, f.Net)
		inc.reset(f)
		full.reset(f)
		cut := false
		for gi, marked := range inc.inRegion {
			if r := inR[c.Gates[gi].Output]; r && !marked || exact && marked != r {
				t.Fatalf("%s: gate %d marked %v, R says %v", where(0), gi, marked, r)
			}
			cut = cut || !marked
			for _, in := range c.Gates[gi].Inputs {
				if d := c.Nets[in].Driver; marked && d != netlist.InvalidGate && !inc.inRegion[d] {
					t.Fatalf("%s: gate %d is marked but its fanin gate %d is not", where(0), gi, d)
				}
			}
		}
		if cut {
			stats.cut++
		}
		requireWorklist(t, where(0), inc, siteFanout(inc, f.Net))
		for step, flipped := 0, false; ; step++ {
			inc.imply()
			full.imply()
			requireWorklist(t, where(step), inc, nil)
			if flipped {
				stats.flips++
			}
			obs := 0
			for n, r := range inR {
				if !r {
					continue
				}
				if inc.val[n] != full.val[n] {
					t.Fatalf("%s: net %s is %04b incrementally, %04b in full", where(step),
						c.Nets[n].Name, inc.val[n], full.val[n])
				}
				d := diffPair(inc.val[n])
				if inc.diffMark[n] != d || d && !inc.inList[n] {
					t.Fatalf("%s: net %s difference mark %v listed %v, value %04b", where(step),
						c.Nets[n].Name, inc.diffMark[n], inc.inList[n], inc.val[n])
				}
				if d && env.observed[n] {
					obs++
				}
			}
			if inc.obsDiff != obs || inc.detected() != full.detected() {
				t.Fatalf("%s: observed differences %d (counted %d), detected %v vs full %v", where(step),
					inc.obsDiff, obs, inc.detected(), full.detected())
			}
			bt := inc.backtracks
			si, doneI := inc.step()
			sf, doneF := full.step()
			if doneI != doneF || si != sf || inc.backtracks != full.backtracks {
				t.Fatalf("%s: incremental (done=%v status=%d bt=%d) vs full (done=%v status=%d bt=%d)",
					where(step), doneI, si, inc.backtracks, doneF, sf, full.backtracks)
			}
			if len(inc.stack) != len(full.stack) {
				t.Fatalf("%s: decision stacks %d vs %d deep", where(step), len(inc.stack), len(full.stack))
			}
			for k, d := range inc.stack {
				if e := full.stack[k]; d.input != e.input || d.value != e.value || d.flipped != e.flipped {
					t.Fatalf("%s: decision %d is %+v incrementally, %+v in full", where(step), k, d, e)
				}
			}
			if doneI {
				if si == podemSuccess && !reflect.DeepEqual(inc.assign, full.assign) {
					t.Fatalf("%s: assignments diverge", where(step))
				}
				break
			}
			flipped = inc.backtracks != bt
		}
	}
	return stats
}

// siteFanout returns the gates of p's region that net n feeds, each once
// (a gate may read n on several inputs): the worklist reset(f) must leave
// for a fault on n.
func siteFanout(p *podem, n netlist.NetID) []netlist.GateID {
	var gs []netlist.GateID
	for _, g := range p.env.fanoutOf(n) {
		if p.inRegion[g] && !slices.Contains(gs, g) {
			gs = append(gs, g)
		}
	}
	return gs
}

// requireWorklist fails unless p's worklist holds exactly the gates of
// want, in any order, and queued marks exactly the worklist's gates.
func requireWorklist(t testing.TB, where string, p *podem, want []netlist.GateID) {
	t.Helper()
	onList := make(map[netlist.GateID]bool, len(p.work))
	for _, g := range p.work {
		if onList[g] {
			t.Fatalf("%s: gate %d is on the worklist twice", where, g)
		}
		onList[g] = true
	}
	for _, g := range want {
		if !onList[g] {
			t.Fatalf("%s: worklist %v lacks gate %d", where, p.work, g)
		}
	}
	if len(p.work) != len(want) {
		t.Fatalf("%s: worklist %v, want the gates %v", where, p.work, want)
	}
	for g, q := range p.queued {
		if q != onList[netlist.GateID(g)] {
			t.Fatalf("%s: gate %d queued %v, on the worklist %v", where, g, q, onList[netlist.GateID(g)])
		}
	}
}

// TestPodemResetAfterAbortedRun pins reset's cleanup of the worklist: an
// aborted run ends right after a flip, with the flipped input's fanout
// still queued. On s1423 at 4 backtracks, every fault that follows such a
// run on the reused engine must start from the site's fanout alone
// (requireWorklist) and reach the same status, backtrack count,
// assignment and value on every net as on a fresh engine.
func TestPodemResetAfterAbortedRun(t *testing.T) {
	c := loadISCAS(t, "s1423")
	env := newPodemEnv(c, nil, 4)
	reused := env.newPodem(false)
	faults := AllFaults(c)
	followed := 0
	for i, f := range faults[:len(faults)-1] {
		if reused.run(f) != podemAborted || len(reused.work) == 0 {
			continue
		}
		followed++
		next := faults[i+1]
		where := fmt.Sprintf("fault %s after aborted %s", next.Name(c), f.Name(c))
		reused.reset(next)
		requireWorklist(t, where, reused, siteFanout(reused, next.Net))
		fresh := env.newPodem(false)
		st, want := reused.run(next), fresh.run(next)
		if st != want || reused.backtracks != fresh.backtracks {
			t.Fatalf("%s: status %d with %d backtracks, a fresh engine gives %d with %d",
				where, st, reused.backtracks, want, fresh.backtracks)
		}
		if !reflect.DeepEqual(reused.assign, fresh.assign) || !reflect.DeepEqual(reused.val, fresh.val) {
			t.Fatalf("%s: assignment or net values differ from a fresh engine's", where)
		}
	}
	if followed == 0 {
		t.Fatal("no aborted run left gates on the worklist; the test exercises nothing")
	}
	t.Logf("%d faults followed an aborted run with a non-empty worklist", followed)
}

// regionOf computes fault site f's region R = TFI(TFO(f)) over whole
// topological passes: forward for the nets f reaches, then backward for
// every net feeding one of them.
func regionOf(c *netlist.Circuit, f netlist.NetID) []bool {
	inR := make([]bool, c.NumNets())
	inR[f] = true
	topo := c.Topo()
	for _, gi := range topo {
		g := &c.Gates[gi]
		for _, in := range g.Inputs {
			if inR[in] {
				inR[g.Output] = true
				break
			}
		}
	}
	for i := len(topo) - 1; i >= 0; i-- {
		if g := &c.Gates[topo[i]]; inR[g.Output] {
			for _, in := range g.Inputs {
				inR[in] = true
			}
		}
	}
	return inR
}

// TestPodemRegionManySinks covers a circuit with more sinks than
// podemEnv.reach has groups: 300 primary-output NAND gates over 10
// inputs. Sharing a group, a sink drags its neighbour's fanin cone into
// the region, which must then still be closed under fanin and hold R,
// with both engines agreeing step by step.
func TestPodemRegionManySinks(t *testing.T) {
	c := netlist.New("sinks")
	for i := 0; i < 10; i++ {
		c.AddPI(fmt.Sprintf("a%d", i))
	}
	for i := 0; i < 300; i++ {
		out := fmt.Sprintf("g%d", i)
		c.AddGate(logic.Nand, out, fmt.Sprintf("a%d", i%10), fmt.Sprintf("a%d", (i*7+3)%10))
		c.MarkPO(out)
	}
	c.MustFreeze()
	p := newPodemEnv(c, nil, 64).newPodem(false)
	f := Fault{Net: c.PIs[0]}
	p.reset(f)
	inR := regionOf(c, f.Net)
	marked, exact := 0, 0
	for gi, m := range p.inRegion {
		if m {
			marked++
		}
		if inR[c.Gates[gi].Output] {
			exact++
		}
	}
	if marked <= exact {
		t.Fatalf("a0's region has %d gates, R has %d: want a strict superset", marked, exact)
	}
	for _, useSCOAP := range []bool{false, true} {
		requirePodemModesAgree(t, "sinks", c, useSCOAP, 64)
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
// a pass over s1423's faults has grown the decision stack and the
// difference list, running a fault on the reused engine allocates
// nothing; the worklist, the undo trail and the inRegion marks are sized
// in newPodem and reused.
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
