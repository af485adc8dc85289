package power

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/iscas"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/probe"
	"repro/internal/scan"
	"repro/internal/sim"
)

// reportsIdentical returns "" when a and b agree on every field to the
// last bit, else a description of the first difference. The packed kernel
// promises bit-identity, so no tolerance is applied.
func reportsIdentical(a, b Report) string {
	switch {
	case a.Cycles != b.Cycles:
		return "Cycles"
	case a.DynamicPerHz != b.DynamicPerHz:
		return "DynamicPerHz"
	case a.PeakDynamicPerHz != b.PeakDynamicPerHz:
		return "PeakDynamicPerHz"
	case a.StaticUW != b.StaticUW:
		return "StaticUW"
	case a.MeanTogglesPerCycle != b.MeanTogglesPerCycle:
		return "MeanTogglesPerCycle"
	case a.MeanLeakNA != b.MeanLeakNA:
		return "MeanLeakNA"
	}
	return ""
}

func randomPatterns(rng *rand.Rand, c *netlist.Circuit, n int) []scan.Pattern {
	pats := make([]scan.Pattern, n)
	for i := range pats {
		pats[i] = scan.Pattern{PI: make([]bool, len(c.PIs)), State: make([]bool, c.NumFFs())}
		sim.RandomVector(rng, pats[i].PI)
		sim.RandomVector(rng, pats[i].State)
	}
	return pats
}

// TestMeasureScanPackedMatchesSlow: the bit-parallel kernel must agree
// with the full re-evaluation path bit for bit, across structures and
// batch-boundary-crossing pattern counts.
func TestMeasureScanPackedMatchesSlow(t *testing.T) {
	p, _ := iscas.ByName("s344")
	c, err := iscas.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	lm := leakage.Default()
	cm := DefaultCapModel()
	rng := rand.New(rand.NewSource(21))

	cfgs := []scan.ShiftConfig{scan.Traditional(c)}
	withMux := scan.Traditional(c)
	for f := range withMux.Muxed {
		if f%2 == 0 {
			withMux.Muxed[f] = true
			withMux.MuxVal[f] = f%4 == 0
		}
	}
	withMux.PIHold[0] = logic.One
	cfgs = append(cfgs, withMux)

	for _, nPats := range []int{1, 12, 40} {
		pats := randomPatterns(rng, c, nPats)
		for ci, cfg := range cfgs {
			slow, err := MeasureScan(scan.New(c), pats, cfg, lm, cm)
			if err != nil {
				t.Fatal(err)
			}
			packed, err := MeasureScanPacked(context.Background(), scan.New(c), pats, cfg, lm, cm)
			if err != nil {
				t.Fatal(err)
			}
			if field := reportsIdentical(slow, packed); field != "" {
				t.Errorf("pats=%d cfg=%d: %s differs: serial %+v, packed %+v",
					nPats, ci, field, slow, packed)
			}
		}
	}
}

// TestMeasureScanPackedPartialBatch: a stream far shorter than one
// 256-lane batch must still match the serial kernel.
func TestMeasureScanPackedPartialBatch(t *testing.T) {
	c := buildShiftReg(t)
	lm := leakage.Default()
	cm := DefaultCapModel()
	pats := []scan.Pattern{
		{PI: []bool{true}, State: []bool{true, false, true}},
		{PI: []bool{false}, State: []bool{false, true, false}},
	}
	slow, err := MeasureScan(scan.New(c), pats, scan.Traditional(c), lm, cm)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := MeasureScanPacked(context.Background(), scan.New(c), pats, scan.Traditional(c), lm, cm)
	if err != nil {
		t.Fatal(err)
	}
	if field := reportsIdentical(slow, packed); field != "" {
		t.Errorf("%s differs: serial %+v, packed %+v", field, slow, packed)
	}
}

// TestMeasureScanPackedEmptyAndErrors pins the edge behaviour shared with
// the serial kernels.
func TestMeasureScanPackedEmptyAndErrors(t *testing.T) {
	c := buildShiftReg(t)
	rep, err := MeasureScanPacked(context.Background(), scan.New(c), nil, scan.Traditional(c), leakage.Default(), DefaultCapModel())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 0 || rep.DynamicPerHz != 0 {
		t.Errorf("empty run should measure nothing: %+v", rep)
	}
	bad := []scan.Pattern{{PI: []bool{true, true}, State: []bool{true, false, true}}}
	if _, err := MeasureScanPacked(context.Background(), scan.New(c), bad, scan.Traditional(c), leakage.Default(), DefaultCapModel()); err == nil {
		t.Error("bad pattern accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pats := []scan.Pattern{{PI: []bool{true}, State: []bool{true, false, true}}}
	if _, err := MeasureScanPacked(ctx, scan.New(c), pats, scan.Traditional(c),
		leakage.Default(), DefaultCapModel()); err == nil {
		t.Error("cancelled context not honoured")
	}
}

// TestMeasureScanPackedHooks: a Pattern event fires once per pattern in
// order, and the MeasureBatch lane counts sum to the number of observed
// cycles.
func TestMeasureScanPackedHooks(t *testing.T) {
	p, _ := iscas.ByName("s344")
	c, err := iscas.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomPatterns(rand.New(rand.NewSource(5)), c, 40)
	var patIdx []int
	lanes := 0
	batches := 0
	ctx, _ := probe.Open(context.Background(), func(_ *probe.Scope, ev probe.Event) {
		switch ev.Kind {
		case probe.Pattern:
			patIdx = append(patIdx, ev.N)
		case probe.MeasureBatch:
			lanes += ev.N
			batches++
			if ev.N < 1 || ev.N > sim.WideLanes {
				t.Errorf("batch of %d lanes", ev.N)
			}
		}
	}, c.Name)
	rep, err := MeasureScanPacked(ctx, scan.New(c), pats, scan.Traditional(c),
		leakage.Default(), DefaultCapModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(patIdx) != len(pats) {
		t.Fatalf("Pattern fired %d times, want %d", len(patIdx), len(pats))
	}
	for i, got := range patIdx {
		if got != i {
			t.Errorf("Pattern[%d] = %d", i, got)
		}
	}
	// Observed cycles = counted transitions + the priming observation.
	if want := rep.Cycles + 1; lanes != want {
		t.Errorf("MeasureBatch lanes sum = %d, want %d", lanes, want)
	}
	if wantMin := (rep.Cycles + 1 + sim.WideLanes - 1) / sim.WideLanes; batches < wantMin || batches < 2 {
		t.Errorf("MeasureBatch fired %d times, want >= max(2, %d)", batches, wantMin)
	}
}

// TestMeasureScanPackedEnumerationBoundary crosses the kernel's switch
// from per-state leakage (at most 8 varying inputs, every state in one
// 256-lane batch) to per-lane accumulation: m = 0, 1, 8 and 9 varying
// inputs drawn first from the unheld PIs or first from the unmuxed flops,
// with the other PIs held at mixed 0/1, one chain and unequal
// multi-chains, and pattern counts that cross the 256-lane
// batches and the 256-pattern capture windows. Every Report field must
// equal MeasureScan's.
func TestMeasureScanPackedEnumerationBoundary(t *testing.T) {
	p, _ := iscas.ByName("s344")
	c, err := iscas.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	lm, cm := leakage.Default(), DefaultCapModel()
	nPI, nFF := len(c.PIs), c.NumFFs()
	// cfgFor leaves m inputs varying: X holds on the first PIs and
	// unmuxed first flops, taking from the PIs first when pisFirst.
	cfgFor := func(m int, pisFirst bool) scan.ShiftConfig {
		xPI := min(m, nPI)
		if !pisFirst {
			xPI = m - min(m, nFF)
		}
		cfg := scan.Traditional(c)
		for i := range cfg.PIHold {
			if i >= xPI {
				cfg.PIHold[i] = logic.Value(1 + i%2) // Zero or One
			}
		}
		for f := m - xPI; f < nFF; f++ {
			cfg.Muxed[f] = true
			cfg.MuxVal[f] = f%3 == 0
		}
		return cfg
	}
	rng := rand.New(rand.NewSource(8))
	for _, nPats := range []int{1, 18, 300} {
		pats := randomPatterns(rng, c, nPats)
		for _, m := range []int{0, 1, 8, 9} {
			for _, pisFirst := range []bool{true, false} {
				cfg := cfgFor(m, pisFirst)
				pis, ffs := cfg.Varying()
				if len(pis)+len(ffs) != m {
					t.Fatalf("m=%d: config varies %d PIs and %d flops", m, len(pis), len(ffs))
				}
				for _, n := range []int{1, 4} { // 15 flops in 4 chains: 4, 4, 4, 3
					chains, err := scan.NewChains(c, n)
					if err != nil {
						t.Fatal(err)
					}
					slow, err := MeasureScan(chains, pats, cfg, lm, cm)
					if err != nil {
						t.Fatal(err)
					}
					packed, err := MeasureScanPacked(context.Background(), chains, pats, cfg, lm, cm)
					if err != nil {
						t.Fatal(err)
					}
					if field := reportsIdentical(slow, packed); field != "" {
						t.Errorf("pats=%d m=%d pisFirst=%v chains=%d: %s differs: serial %+v, packed %+v",
							nPats, m, pisFirst, n, field, slow, packed)
					}
				}
			}
		}
	}
}

// randomFuzzCircuit builds a small random, well-formed frozen circuit
// from a seed: a DAG of random gates over a few PIs and flops.
func randomFuzzCircuit(rng *rand.Rand) *netlist.Circuit {
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
		q := "q" + string(rune('a'+i))
		nets = append(nets, q)
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

// FuzzMeasureScanPackedEquivalence drives random circuits, pattern sets,
// shift configurations and round-robin partitions into 1 to 4 chains
// through both kernels and requires bit-equal reports. `make fuzz-equiv` runs this continuously; the seed corpus runs
// on every `go test`.
func FuzzMeasureScanPackedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0b1010), uint8(0))
	f.Add(int64(2), uint8(1), uint8(0), uint8(1))
	f.Add(int64(99), uint8(70), uint8(0xFF), uint8(2))
	// Every fuzz circuit has at most 7 inputs, so every run enumerates
	// its states; this one (four flops, 80 patterns) spans two 256-lane
	// batches.
	f.Add(int64(11), uint8(79), uint8(0b0101), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nPats, muxMask, nChains uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := randomFuzzCircuit(rng)
		np := int(nPats)%80 + 1
		pats := randomPatterns(rng, c, np)
		cfg := scan.Traditional(c)
		for fi := range cfg.Muxed {
			if muxMask>>(uint(fi)%8)&1 == 1 {
				cfg.Muxed[fi] = true
				cfg.MuxVal[fi] = rng.Intn(2) == 1
			}
		}
		for pi := range cfg.PIHold {
			cfg.PIHold[pi] = logic.Value(rng.Intn(3))
		}
		nc := int(nChains)%4 + 1
		chains, err := scan.NewChains(c, nc)
		if err != nil {
			t.Fatal(err)
		}
		lm := leakage.Default()
		cm := DefaultCapModel()
		slow, err := MeasureScan(chains, pats, cfg, lm, cm)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := MeasureScanPacked(context.Background(), chains, pats, cfg, lm, cm)
		if err != nil {
			t.Fatal(err)
		}
		if field := reportsIdentical(slow, packed); field != "" {
			t.Fatalf("seed=%d np=%d mux=%x chains=%d: %s differs: serial %+v, packed %+v",
				seed, np, muxMask, nc, field, slow, packed)
		}
	})
}
