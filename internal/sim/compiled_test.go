package sim

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// TestCompileLevelizedOrder is the lowering property test: on random
// circuits (plus an ISCAS netlist when available), the compiled program
// must hold every gate exactly once in (level, GateID) ascending order,
// with each instruction's opcode, output and fanin run matching the
// netlist gate in order and multiplicity, and every fanin's driver
// lowered to an earlier instruction.
func TestCompileLevelizedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var circuits []*netlist.Circuit
	for iter := 0; iter < 40; iter++ {
		circuits = append(circuits, randomCircuit3(rng))
	}
	if p, ok := iscas.ByName("s344"); ok {
		c, err := iscas.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for _, c := range circuits {
		p := Compile(c)
		if p.NumInstrs() != c.NumGates() {
			t.Fatalf("%s: %d instructions for %d gates", c.Name, p.NumInstrs(), c.NumGates())
		}
		seen := make([]bool, c.NumGates())
		// instrOf[g] = instruction index of gate g, for the driver check.
		instrOf := make([]int, c.NumGates())
		for i := 0; i < p.NumInstrs(); i++ {
			gi := p.GateOf(i)
			if seen[gi] {
				t.Fatalf("%s: gate %d lowered twice", c.Name, gi)
			}
			seen[gi] = true
			instrOf[gi] = i
			if i > 0 {
				prev := p.GateOf(i - 1)
				lp, li := c.Level(prev), c.Level(gi)
				if lp > li || (lp == li && prev > gi) {
					t.Fatalf("%s: instr %d: (level %d, gate %d) after (level %d, gate %d)",
						c.Name, i, li, gi, lp, prev)
				}
			}
			g := &c.Gates[gi]
			if p.Output(i) != g.Output {
				t.Fatalf("%s: instr %d output %d, want %d", c.Name, i, p.Output(i), g.Output)
			}
			fins := p.Fanins(i)
			if len(fins) != len(g.Inputs) {
				t.Fatalf("%s: instr %d has %d fanins, want %d (multiplicity must survive lowering)",
					c.Name, i, len(fins), len(g.Inputs))
			}
			for j, in := range g.Inputs {
				if fins[j] != in {
					t.Fatalf("%s: instr %d fanin %d is net %d, want %d", c.Name, i, j, fins[j], in)
				}
			}
		}
		// Topological soundness: every gate-driven fanin was computed by an
		// earlier instruction.
		for i := 0; i < p.NumInstrs(); i++ {
			for _, in := range p.Fanins(i) {
				if d := c.Nets[in].Driver; d != netlist.InvalidGate && instrOf[d] >= i {
					t.Fatalf("%s: instr %d reads net %d before its driver (instr %d) ran",
						c.Name, i, in, instrOf[d])
				}
			}
		}
		// LevelRange partitions the instruction stream in level order.
		at := 0
		for l := 0; l < c.Depth(); l++ {
			s, e := p.LevelRange(l)
			if s != at {
				t.Fatalf("%s: level %d starts at %d, want %d", c.Name, l, s, at)
			}
			for i := s; i < e; i++ {
				if c.Level(p.GateOf(i)) != l {
					t.Fatalf("%s: instr %d in level-%d range has level %d",
						c.Name, i, l, c.Level(p.GateOf(i)))
				}
			}
			at = e
		}
		if at != p.NumInstrs() {
			t.Fatalf("%s: level ranges cover %d of %d instructions", c.Name, at, p.NumInstrs())
		}
	}
}

// buildAllGates covers every gate type and arity the library emits.
func buildAllGates(t testing.TB) *netlist.Circuit {
	t.Helper()
	c := netlist.New("allgates")
	c.AddPI("a")
	c.AddPI("b")
	c.AddPI("s")
	c.AddFF("f0", "q0", "d0")
	c.AddGate(logic.Buf, "n_buf", "a")
	c.AddGate(logic.Not, "n_not", "b")
	c.AddGate(logic.And, "n_and", "a", "b", "q0")
	c.AddGate(logic.Nand, "n_nand", "a", "n_buf", "n_not")
	c.AddGate(logic.Or, "n_or", "n_and", "b")
	c.AddGate(logic.Nor, "n_nor", "n_or", "q0")
	c.AddGate(logic.Xor, "n_xor", "a", "b", "s")
	c.AddGate(logic.Xnor, "n_xnor", "n_xor", "n_nand")
	c.AddGate(logic.Mux2, "d0", "n_nor", "n_xnor", "s")
	c.MarkPO("d0")
	c.MustFreeze()
	return c
}

// runWord1 evaluates one 64-lane word k of the wide inputs through
// Program.Run at one word per net and returns the per-net words.
func runWord1(p *Program, piW, ppiW []uint64, k int) []uint64 {
	c := p.Circuit()
	v := make([]uint64, c.NumNets())
	for i, n := range c.PIs {
		v[n] = piW[i*WideWords+k]
	}
	for i, ff := range c.FFs {
		v[ff.Q] = ppiW[i*WideWords+k]
	}
	p.Run(v, 1)
	return v
}

// TestPackedMatchesScalar: each of the PackedLanes lanes of a one-word
// evaluation — Program.Run at one word per net, the core the 64-lane
// FaultSimW runs — must equal the scalar simulator's result for that
// lane's inputs, on every net.
func TestPackedMatchesScalar(t *testing.T) {
	circuits := []*netlist.Circuit{buildAllGates(t)}
	if p, ok := iscas.ByName("s344"); ok {
		c, err := iscas.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range circuits {
		prog := Compile(c)
		ss := New(c)
		piW := make([]uint64, len(c.PIs))
		ppiW := make([]uint64, c.NumFFs())
		for i := range piW {
			piW[i] = rng.Uint64()
		}
		for i := range ppiW {
			ppiW[i] = rng.Uint64()
		}
		words := make([]uint64, c.NumNets())
		for i, n := range c.PIs {
			words[n] = piW[i]
		}
		for i, ff := range c.FFs {
			words[ff.Q] = ppiW[i]
		}
		prog.Run(words, 1)
		pi := make([]bool, len(c.PIs))
		ppi := make([]bool, c.NumFFs())
		for lane := 0; lane < PackedLanes; lane++ {
			for i := range pi {
				pi[i] = piW[i]>>uint(lane)&1 == 1
			}
			for i := range ppi {
				ppi[i] = ppiW[i]>>uint(lane)&1 == 1
			}
			st := ss.Eval(pi, ppi)
			for ni, v := range st {
				if got := words[ni]>>uint(lane)&1 == 1; got != v {
					t.Fatalf("%s: lane %d net %s: Run(ww=1) %v, scalar %v",
						c.Name, lane, c.Nets[ni].Name, got, v)
				}
			}
		}
	}
}

// TestPackedInputLengthPanics pins the misuse contract shared with the
// scalar simulator: a one-word state shorter than the net count panics.
func TestPackedInputLengthPanics(t *testing.T) {
	c := buildAllGates(t)
	prog := Compile(c)
	defer func() {
		if recover() == nil {
			t.Error("short state slice accepted")
		}
	}()
	prog.Run(make([]uint64, c.NumNets()-1), 1)
}

// TestWideMatchesScalar: each of the 256 lanes of a wide evaluation must
// equal the scalar simulator's result for that lane's inputs, on every
// net, and each 64-lane word must equal Program.Run at one word per net
// — on every gate type and arity, an ISCAS netlist, and random circuits.
func TestWideMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	circuits := []*netlist.Circuit{buildAllGates(t)}
	if p, ok := iscas.ByName("s344"); ok {
		c, err := iscas.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for iter := 0; iter < 20; iter++ {
		circuits = append(circuits, randomCircuit3(rng))
	}
	for _, c := range circuits {
		ws := NewWide(c)
		ss := New(c)
		piW := make([]uint64, len(c.PIs)*WideWords)
		ppiW := make([]uint64, c.NumFFs()*WideWords)
		for i := range piW {
			piW[i] = rng.Uint64()
		}
		for i := range ppiW {
			ppiW[i] = rng.Uint64()
		}
		words := ws.Eval(piW, ppiW)
		for k := 0; k < WideWords; k++ {
			one := runWord1(ws.Program(), piW, ppiW, k)
			for n := range one {
				if one[n] != words[n*WideWords+k] {
					t.Fatalf("%s: net %s word %d: Run(ww=1) %x, wide %x",
						c.Name, c.Nets[n].Name, k, one[n], words[n*WideWords+k])
				}
			}
		}
		pi := make([]bool, len(c.PIs))
		ppi := make([]bool, c.NumFFs())
		for lane := 0; lane < WideLanes; lane++ {
			wd, bit := lane>>6, uint(lane&63)
			for i := range pi {
				pi[i] = piW[i*WideWords+wd]>>bit&1 == 1
			}
			for i := range ppi {
				ppi[i] = ppiW[i*WideWords+wd]>>bit&1 == 1
			}
			st := ss.Eval(pi, ppi)
			for ni, v := range st {
				if got := words[ni*WideWords+wd]>>bit&1 == 1; got != v {
					t.Fatalf("%s: lane %d net %s: wide %v, scalar %v",
						c.Name, lane, c.Nets[ni].Name, got, v)
				}
			}
		}
	}
}

// TestPanicsNameCircuitAndLengths pins the misuse diagnostics: frozen
// and length panics must name the circuit and the offending vs expected
// counts, across every evaluator.
func TestPanicsNameCircuitAndLengths(t *testing.T) {
	mustPanic := func(name string, want []string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic", name)
				return
			}
			msg, ok := r.(string)
			if !ok {
				t.Errorf("%s: panic value %v is not a string", name, r)
				return
			}
			for _, w := range want {
				if !strings.Contains(msg, w) {
					t.Errorf("%s: panic %q does not mention %q", name, msg, w)
				}
			}
		}()
		fn()
	}

	unfrozen := netlist.New("never-frozen")
	unfrozen.AddPI("a")
	unfrozen.AddGate(logic.Not, "o", "a")
	mustPanic("NewWide unfrozen", []string{`"never-frozen"`}, func() { NewWide(unfrozen) })
	mustPanic("NewWide3 unfrozen", []string{`"never-frozen"`}, func() { NewWide3(unfrozen) })
	mustPanic("Compile unfrozen", []string{`"never-frozen"`}, func() { Compile(unfrozen) })

	c := netlist.New("tiny2")
	c.AddPI("a")
	c.AddPI("b")
	c.AddFF("f", "q", "d")
	c.AddGate(logic.And, "d", "a", "b", "q")
	c.MarkPO("d")
	c.MustFreeze()

	mustPanic("Wide.Eval pi", []string{`"tiny2"`, "got 2", "want 2 PIs x 4 = 8"}, func() {
		NewWide(c).Eval(make([]uint64, 2), make([]uint64, WideWords))
	})
	mustPanic("Wide.Eval ppi", []string{`"tiny2"`, "got 12", "want 1 FFs x 4 = 4"}, func() {
		NewWide(c).Eval(make([]uint64, 2*WideWords), make([]uint64, 3*WideWords))
	})
	mustPanic("Wide3.EvalNets", []string{`"tiny2"`, "want 4 nets x 4 = 16"}, func() {
		NewWide3(c).EvalNets(make([]uint64, 1), make([]uint64, 1))
	})
	mustPanic("Program.Run bad words", []string{`"tiny2"`, "lane words 2"}, func() {
		Compile(c).Run(make([]uint64, c.NumNets()*2), 2)
	})
	mustPanic("Program.Run bad length", []string{`"tiny2"`, "state length 3"}, func() {
		Compile(c).Run(make([]uint64, 3), 1)
	})
}

// FuzzWideEquivalence cross-checks the evaluators — scalar, 64-lane
// Program.Run, 256-lane wide and wide3 — on fuzzer-shaped random circuits,
// both two-valued and three-valued, lane by lane on every net. Wired into
// `make fuzz-equiv`.
func FuzzWideEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit3(rng)
		prog := Compile(c)
		ss := New(c)
		nNets := c.NumNets()

		// Two-valued: wide vs Run(ww=1) word-identity, then Run(ww=1)
		// vs scalar on the last word.
		piW := make([]uint64, len(c.PIs)*WideWords)
		ppiW := make([]uint64, c.NumFFs()*WideWords)
		for i := range piW {
			piW[i] = rng.Uint64()
		}
		for i := range ppiW {
			ppiW[i] = rng.Uint64()
		}
		wide := NewWideProgram(prog).Eval(piW, ppiW)
		var one []uint64
		for k := 0; k < WideWords; k++ {
			one = runWord1(prog, piW, ppiW, k)
			for n := 0; n < nNets; n++ {
				if one[n] != wide[n*WideWords+k] {
					t.Fatalf("net %s word %d: Run(ww=1) %x vs wide %x",
						c.Nets[n].Name, k, one[n], wide[n*WideWords+k])
				}
			}
		}
		pib := make([]bool, len(c.PIs))
		ppib := make([]bool, c.NumFFs())
		for lane := 0; lane < PackedLanes; lane++ {
			for i, n := range c.PIs {
				pib[i] = one[n]>>uint(lane)&1 == 1
			}
			for i, ff := range c.FFs {
				ppib[i] = one[ff.Q]>>uint(lane)&1 == 1
			}
			st := ss.Eval(pib, ppib)
			for n, v := range st {
				if got := one[n]>>uint(lane)&1 == 1; got != v {
					t.Fatalf("net %s lane %d: Run(ww=1) %v vs scalar %v", c.Nets[n].Name, lane, got, v)
				}
			}
		}

		// Three-valued: wide3 vs scalar on a random lane of every net.
		v := make([]uint64, nNets*WideWords)
		x := make([]uint64, nNets*WideWords)
		for _, n := range c.CombInputs() {
			for k := 0; k < WideWords; k++ {
				xv := rng.Uint64()
				v[int(n)*WideWords+k] = rng.Uint64() &^ xv
				x[int(n)*WideWords+k] = xv
			}
		}
		NewWide3Program(prog).EvalNets(v, x)
		lane := int(rng.Int31n(WideLanes))
		at := func(n netlist.NetID) logic.Value {
			g := int(n)*WideWords + lane>>6
			return UnpackValue(v[g], x[g], lane&63)
		}
		piV := make([]logic.Value, len(c.PIs))
		ppiV := make([]logic.Value, c.NumFFs())
		for i, n := range c.PIs {
			piV[i] = at(n)
		}
		for i, ff := range c.FFs {
			ppiV[i] = at(ff.Q)
		}
		st3 := ss.Eval3(piV, ppiV)
		for n := 0; n < nNets; n++ {
			if got := at(netlist.NetID(n)); got != st3[n] {
				t.Fatalf("net %s lane %d: wide3 %v vs scalar %v", c.Nets[n].Name, lane, got, st3[n])
			}
		}
	})
}
