package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/probe"
)

// fillScalar is the serial reference kernel of the minimum-leakage fill,
// the oracle fillPacked is pinned against: one random completion per
// trial, implied and costed in place on the precomputed X-averaged tables
// of leakage.CircuitTables3 (bit-identical to CircuitLeak).
//
// Returns the winning per-input values, parallel to unassigned. On
// cancellation mid-search the best completion seen so far is returned
// and the latched context error makes the caller discard the run.
func (f *finder) fillScalar(unassigned []netlist.NetID, trials int) []logic.Value {
	c := f.c
	tabs3 := f.opts.Leak.CircuitTables3(c)
	bestLeak := 0.0
	best := make([]logic.Value, len(unassigned))
	cur := make([]logic.Value, len(unassigned))
	for trial := 0; trial < trials; trial++ {
		if f.cancelled() {
			break
		}
		for i, n := range unassigned {
			if trial == 0 && f.ob != nil {
				cur[i] = logic.FromBool(f.ob.PreferredValue(n))
			} else {
				cur[i] = logic.FromBool(f.rng.Intn(2) == 1)
			}
			f.assign[n] = cur[i]
		}
		f.imply()
		leak := f.opts.Leak.CircuitLeakTabs3(c, f.val, tabs3)
		if trial == 0 || leak < bestLeak {
			bestLeak = leak
			copy(best, cur)
		}
	}
	return best
}

// finderAtFill replays Build up to the don't-care fill — MUX selection,
// the observability estimate and the blocking search — and returns the
// finder together with the controlled inputs the fill must complete.
// Calls with equal arguments return equal, independent states, rng
// position included.
func finderAtFill(t testing.TB, c *netlist.Circuit, opts Options) (*finder, []netlist.NetID) {
	t.Helper()
	work := c.Clone()
	if err := work.Freeze(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	muxable := make([]bool, work.NumFFs())
	switch {
	case opts.UseMux && opts.MuxMask != nil:
		copy(muxable, opts.MuxMask)
	case opts.UseMux:
		muxable, _ = AddMUX(work, opts.Delay)
	}
	var ob *obs.Observability
	if opts.ObsDirected {
		var err error
		ob, err = obs.EstimatePacked(context.Background(), work, opts.Leak, opts.ObsSamples, rng, obs.PackedOpts{})
		if err != nil {
			t.Fatal(err)
		}
	}
	f := newFinder(work, &opts, muxable, ob, rng)
	f.run()
	var unassigned []netlist.NetID
	for _, n := range work.CombInputs() {
		if f.controlled[n] && f.assign[n] == logic.X {
			unassigned = append(unassigned, n)
		}
	}
	return f, unassigned
}

// fillMismatch runs fillScalar and fillPacked from two equal finder
// states and returns "" when they pick the same completion and leave the
// rng in the same state, else what differs. It also reports how many
// inputs the fill completed, so callers can reject vacuous cases.
func fillMismatch(t testing.TB, c *netlist.Circuit, opts Options, trials int) (string, int) {
	t.Helper()
	ref, refIn := finderAtFill(t, c, opts)
	got, gotIn := finderAtFill(t, c, opts)
	want := ref.fillScalar(refIn, trials)
	have := got.fillPacked(gotIn, trials)
	for i := range want {
		if want[i] != have[i] {
			return "completion", len(want)
		}
	}
	if ref.rng.Int63() != got.rng.Int63() {
		return "rng end state", len(want)
	}
	return "", len(want)
}

// TestMCPackedBuildEquivalence: the packed don't-care fill must pick the
// scalar reference's completion — and consume its rng stream exactly —
// from the same finder state, on real circuits, for both the proposed
// flow and the input-control baseline, at trial counts below, at and
// across the 256-lane batch width.
func TestMCPackedBuildEquivalence(t *testing.T) {
	p, _ := iscas.ByName("s344")
	gen, err := iscas.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	circuits := map[string]*netlist.Circuit{"s27": mappedS27(t), "s344": gen}
	filled := 0
	for name, c := range circuits {
		for _, mk := range []func() Options{ProposedOptions, InputControlOptions} {
			for _, trials := range []int{1, 100, 256, 600} {
				opts := mk()
				diff, n := fillMismatch(t, c, opts, trials)
				if diff != "" {
					t.Errorf("%s UseMux=%v trials=%d: %s differs between scalar and packed fill",
						name, opts.UseMux, trials, diff)
				}
				filled += n
			}
		}
	}
	if filled == 0 {
		t.Fatal("no case left don't-cares to fill; the test no longer exercises the fill")
	}
}

// TestBuildObsDeadline: a context cancelled while the observability
// estimate is running must abort the whole flow with the context's error.
func TestBuildObsDeadline(t *testing.T) {
	c := mappedS27(t)
	ctx, cancel := context.WithCancel(context.Background())
	opts := ProposedOptions()
	opts.ObsSamples = 1 << 20
	ctx, _ = probe.Open(ctx, func(_ *probe.Scope, ev probe.Event) {
		if ev.Kind == probe.Samples {
			cancel()
		}
	}, c.Name)
	sol, err := BuildContext(ctx, c, opts)
	if err != context.Canceled {
		t.Errorf("BuildContext = (%v, %v), want context.Canceled", sol, err)
	}
}

// TestMCBatchTelemetry: every Monte-Carlo batch must surface as an MCBatch
// probe event, with lane totals accounting for every observability vector
// and every fill trial exactly once.
func TestMCBatchTelemetry(t *testing.T) {
	c := mappedS27(t)
	opts := ProposedOptions()
	opts.ObsSamples = 300
	opts.FillTrials = 100
	laneTotal := map[string]int{}
	ctx, _ := probe.Open(context.Background(), func(_ *probe.Scope, ev probe.Event) {
		if ev.Kind != probe.MCBatch {
			return
		}
		kind, lanes := ev.Name, ev.N
		if kind != "obs" && kind != "fill" {
			t.Errorf("unknown MC batch kind %q", kind)
		}
		if lanes < 1 || lanes > 256 {
			t.Errorf("%s batch carries %d lanes", kind, lanes)
		}
		if ev.Elapsed < 0 {
			t.Errorf("%s batch has negative elapsed", kind)
		}
		laneTotal[kind] += lanes
	}, c.Name)
	sol, err := BuildContext(ctx, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if laneTotal["obs"] != opts.ObsSamples {
		t.Errorf("obs batches carried %d lanes, want %d", laneTotal["obs"], opts.ObsSamples)
	}
	if sol.Stats.FilledInputs == 0 {
		t.Fatal("flow left no don't-cares to fill; test circuit no longer exercises fill")
	}
	if laneTotal["fill"] != opts.FillTrials {
		t.Errorf("fill batches carried %d lanes, want %d", laneTotal["fill"], opts.FillTrials)
	}
}

// randomMCCircuit builds a small random, well-formed frozen circuit from
// the fuzz seed: a DAG of random gates over a few PIs and flops.
func randomMCCircuit(rng *rand.Rand) *netlist.Circuit {
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

// FuzzMCPackedEquivalence drives random circuits and flow shapes to the
// don't-care fill and requires the packed and scalar fills to pick the
// same completion and leave the rng in the same state. `make fuzz-equiv`
// runs this continuously; the seed corpus runs on every `go test`.
func FuzzMCPackedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), true, uint8(100), uint8(70))
	f.Add(int64(2), uint8(0xFF), false, uint8(1), uint8(1))
	f.Add(int64(99), uint8(0b1010), true, uint8(65), uint8(129))
	f.Fuzz(func(t *testing.T, seed int64, muxMask uint8, obsDirected bool, obsSamples, fillTrials uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := randomMCCircuit(rng)
		opts := ProposedOptions()
		opts.Seed = seed
		opts.ObsDirected = obsDirected
		opts.ObsSamples = int(obsSamples) + 1
		opts.MuxMask = make([]bool, c.NumFFs())
		for fi := range opts.MuxMask {
			opts.MuxMask[fi] = muxMask>>(uint(fi)%8)&1 == 1
		}
		trials := int(fillTrials)*3 + 1 // up to 766: crosses the 256-lane batches
		if diff, _ := fillMismatch(t, c, opts, trials); diff != "" {
			t.Fatalf("seed=%d mux=%x obs=%v samples=%d trials=%d: %s differs",
				seed, muxMask, obsDirected, opts.ObsSamples, trials, diff)
		}
	})
}
