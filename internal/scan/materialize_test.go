package scan

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// TestMaterializedMatchesBehavioral is the end-to-end structural check:
// driving the stitched gate-level scan netlist cycle by cycle must expose
// exactly the combinational input values the behavioral Chains.Run
// reports, and the scan-out pin must stream exactly the captured
// responses.
func TestMaterializedMatchesBehavioral(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		c := randomSeqCircuit(t, rng, 4+rng.Intn(4), 3+rng.Intn(5), 12+rng.Intn(20))
		order := rng.Perm(c.NumFFs())
		ch, err := NewWithOrder(c, order)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Traditional(c)
		for f := range cfg.Muxed {
			if rng.Intn(3) == 0 {
				cfg.Muxed[f] = true
				cfg.MuxVal[f] = rng.Intn(2) == 1
			}
		}
		for i := range cfg.PIHold {
			cfg.PIHold[i] = logic.Value(rng.Intn(3))
		}
		var pats []Pattern
		for i := 0; i < 4; i++ {
			p := Pattern{PI: make([]bool, len(c.PIs)), State: make([]bool, c.NumFFs())}
			sim.RandomVector(rng, p.PI)
			sim.RandomVector(rng, p.State)
			pats = append(pats, p)
		}
		crossValidate(t, ch, cfg, pats)
	}
}

// crossValidate replays the Run protocol on the materialized netlist and
// compares every observable against the behavioral hooks.
func crossValidate(t *testing.T, ch *Chains, cfg ShiftConfig, pats []Pattern) {
	t.Helper()
	c := ch.c
	mat, err := Materialize(ch, cfg)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}

	// Behavioral trace: comb input values per shift cycle + capture data.
	type cap struct{ ppi, resp []bool }
	var shiftTrace [][]bool // pi ++ ppi per shift cycle
	var captures []cap
	s := sim.New(c)
	hooks := Hooks{
		ShiftCycle: func(pi, ppi []bool) {
			shiftTrace = append(shiftTrace, append(append([]bool(nil), pi...), ppi...))
		},
		Capture: func(pi, ppi []bool) []bool {
			st := s.Eval(pi, ppi)
			resp := make([]bool, c.NumFFs())
			for i, ff := range c.FFs {
				resp[i] = st[ff.D]
			}
			captures = append(captures, cap{append([]bool(nil), ppi...), resp})
			return resp
		},
	}
	if err := ch.Run(pats, cfg, hooks); err != nil {
		t.Fatal(err)
	}

	// Structural replay.
	stepper := sim.NewStepper(mat.Circuit)
	qNet := make([]netlist.NetID, c.NumFFs())
	for f, ff := range c.FFs {
		id, ok := mat.Circuit.NetByName(c.Nets[ff.Q].Name)
		if !ok {
			t.Fatalf("comb-visible net %s missing", c.Nets[ff.Q].Name)
		}
		qNet[f] = id
	}
	piNet := make([]netlist.NetID, len(c.PIs))
	for i, pi := range c.PIs {
		id, ok := mat.Circuit.NetByName(c.Nets[pi].Name)
		if !ok {
			t.Fatalf("PI %s missing", c.Nets[pi].Name)
		}
		piNet[i] = id
	}
	soNet := mat.Circuit.POs[mat.SO]

	order := ch.Groups[0]
	L := len(order)
	cycle := 0
	holdPI := func(pat Pattern) []bool {
		out := make([]bool, len(c.PIs))
		for i := range out {
			switch cfg.PIHold[i] {
			case logic.Zero:
				out[i] = false
			case logic.One:
				out[i] = true
			default:
				out[i] = pat.PI[i]
			}
		}
		return out
	}
	var lastResp []bool
	for pi, pat := range pats {
		hold := holdPI(pat)
		for tshift := 0; tshift < L; tshift++ {
			inBit := pat.State[order[L-1-tshift]]
			// Scan-out check: the bit leaving now is the previous
			// response at descending chain positions.
			if lastResp != nil {
				pre := stepper.Peek(mat.Drive(hold, inBit, true))
				want := lastResp[order[L-1-tshift]]
				if pre[soNet] != want {
					t.Fatalf("pattern %d shift %d: SO = %v, want %v",
						pi, tshift, pre[soNet], want)
				}
			}
			stepper.Step(mat.Drive(hold, inBit, true))
			vals := stepper.Peek(mat.Drive(hold, false, true))
			ref := shiftTrace[cycle]
			for i := range c.PIs {
				if vals[piNet[i]] != ref[i] {
					t.Fatalf("pattern %d shift %d: PI %d differs", pi, tshift, i)
				}
			}
			for f := 0; f < c.NumFFs(); f++ {
				if vals[qNet[f]] != ref[len(c.PIs)+f] {
					t.Fatalf("pattern %d shift %d: comb input of flop %d = %v, want %v",
						pi, tshift, f, vals[qNet[f]], ref[len(c.PIs)+f])
				}
			}
			cycle++
		}
		// Capture cycle: SE=0, pattern PI values.
		pre := stepper.Peek(mat.Drive(pat.PI, false, false))
		for f := 0; f < c.NumFFs(); f++ {
			if pre[qNet[f]] != captures[pi].ppi[f] {
				t.Fatalf("pattern %d capture: flop %d sees %v, want %v",
					pi, f, pre[qNet[f]], captures[pi].ppi[f])
			}
		}
		stepper.Step(mat.Drive(pat.PI, false, false))
		// Flop state must now equal the captured response.
		for f, want := range captures[pi].resp {
			if stepper.State()[f] != want {
				t.Fatalf("pattern %d: captured state of flop %d = %v, want %v",
					pi, f, stepper.State()[f], want)
			}
		}
		lastResp = captures[pi].resp
	}
}

// randomSeqCircuit builds a random, well-formed sequential circuit.
func randomSeqCircuit(t *testing.T, rng *rand.Rand, pis, ffs, gates int) *netlist.Circuit {
	t.Helper()
	c := netlist.New("rnd")
	var pool []string
	for i := 0; i < pis; i++ {
		n := "pi" + string(rune('a'+i))
		c.AddPI(n)
		pool = append(pool, n)
	}
	for i := 0; i < ffs; i++ {
		q := "q" + string(rune('a'+i))
		c.AddFF("ff"+string(rune('a'+i)), q, "d"+string(rune('a'+i)))
		pool = append(pool, q)
	}
	types := []logic.GateType{logic.Nand, logic.Nor, logic.Not}
	for i := 0; i < gates; i++ {
		gt := types[rng.Intn(len(types))]
		arity := 2
		if gt == logic.Not {
			arity = 1
		}
		ins := make([]string, arity)
		for j := range ins {
			ins[j] = pool[rng.Intn(len(pool))]
		}
		out := "n" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		c.AddGate(gt, out, ins...)
		pool = append(pool, out)
	}
	for i := 0; i < ffs; i++ {
		c.AddGate(logic.Nand, "d"+string(rune('a'+i)),
			pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
	}
	c.AddGate(logic.Nor, "outg", pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
	c.MarkPO("outg")
	c.MustFreeze()
	return c
}

func TestMaterializeValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := randomSeqCircuit(t, rng, 2, 3, 5)
	ch := New(c)
	bad := Traditional(c)
	bad.Muxed = bad.Muxed[:1]
	if _, err := Materialize(ch, bad); err == nil {
		t.Error("accepted invalid config")
	}
}

// TestMaterializeRejectsMultiChain: the stitched netlist has one scan-in
// and one scan-out port, so a partition into two chains is an error, and
// so is a chain with no flop to drive the scan-out.
func TestMaterializeRejectsMultiChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := randomSeqCircuit(t, rng, 2, 3, 5)
	cs, err := NewChains(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize(cs, Traditional(c)); err == nil {
		t.Error("accepted a 2-chain configuration")
	}
	comb := randomSeqCircuit(t, rng, 2, 0, 5)
	if _, err := Materialize(New(comb), Traditional(comb)); err == nil {
		t.Error("accepted an empty chain")
	}
}

func TestMaterializePortBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := randomSeqCircuit(t, rng, 2, 3, 5)
	ch := New(c)
	cfg := Traditional(c)
	cfg.Muxed[0], cfg.MuxVal[0] = true, true
	cfg.Muxed[1], cfg.MuxVal[1] = true, false
	mat, err := Materialize(ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mc := mat.Circuit
	if mc.Nets[mc.PIs[mat.SI]].Name != "SI" || mc.Nets[mc.PIs[mat.SE]].Name != "SE" {
		t.Error("SI/SE indices wrong")
	}
	if mat.Tie0 < 0 || mat.Tie1 < 0 {
		t.Error("tie rails missing despite both constants in use")
	}
	drive := mat.Drive(make([]bool, 2), true, true)
	if !drive[mat.SI] || !drive[mat.SE] || drive[mat.Tie0] || !drive[mat.Tie1] {
		t.Errorf("Drive wiring wrong: %v", drive)
	}
	// Scan netlist grows by one D-mux per flop plus one output MUX per
	// muxed flop.
	wantGates := c.NumGates() + c.NumFFs() + 2
	if mc.NumGates() != wantGates {
		t.Errorf("materialized gates = %d, want %d", mc.NumGates(), wantGates)
	}
}
