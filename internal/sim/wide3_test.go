package sim

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// randomCircuit3 builds a small random frozen circuit covering every gate
// type, for differential testing of the packed three-valued evaluator.
func randomCircuit3(rng *rand.Rand) *netlist.Circuit {
	c := netlist.New("p3fuzz")
	nPI := 1 + rng.Intn(4)
	nFF := 1 + rng.Intn(3)
	var nets []string
	for i := 0; i < nPI; i++ {
		name := "pi" + string(rune('a'+i))
		c.AddPI(name)
		nets = append(nets, name)
	}
	for i := 0; i < nFF; i++ {
		nets = append(nets, "q"+string(rune('a'+i)))
	}
	types := []logic.GateType{logic.Not, logic.Buf, logic.And, logic.Nand,
		logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Mux2}
	nGates := 4 + rng.Intn(24)
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
		c.AddFF("f"+string(rune('a'+i)), "q"+string(rune('a'+i)), driven[rng.Intn(len(driven))])
	}
	c.MarkPO(driven[len(driven)-1])
	c.MustFreeze()
	return c
}

// TestWide3MatchesEval3 drives random circuits with 256 random
// three-valued input lanes and requires every lane of every net to match
// the scalar three-valued simulator exactly, in the normalized encoding.
func TestWide3MatchesEval3(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 60; iter++ {
		c := randomCircuit3(rng)
		w3 := NewWide3(c)
		s := New(c)
		nNets := c.NumNets()
		v := make([]uint64, nNets*WideWords)
		x := make([]uint64, nNets*WideWords)
		lanes := make([][]logic.Value, WideLanes)
		pi := make([]logic.Value, len(c.PIs))
		ppi := make([]logic.Value, c.NumFFs())
		for tl := 0; tl < WideLanes; tl++ {
			wd, bit := tl>>6, tl&63
			for i, n := range c.PIs {
				pi[i] = logic.Value(rng.Intn(3))
				g := int(n)*WideWords + wd
				PackValue(&v[g], &x[g], bit, pi[i])
			}
			for i, ff := range c.FFs {
				ppi[i] = logic.Value(rng.Intn(3))
				g := int(ff.Q)*WideWords + wd
				PackValue(&v[g], &x[g], bit, ppi[i])
			}
			lanes[tl] = append([]logic.Value(nil), s.Eval3(pi, ppi)...)
		}
		w3.EvalNets(v, x)
		for n := 0; n < nNets; n++ {
			for k := 0; k < WideWords; k++ {
				if g := n*WideWords + k; v[g]&x[g] != 0 {
					t.Fatalf("iter %d: net %s word %d not normalized: v=%x x=%x",
						iter, c.Nets[n].Name, k, v[g], x[g])
				}
			}
			for tl := 0; tl < WideLanes; tl++ {
				g := n*WideWords + tl>>6
				got := UnpackValue(v[g], x[g], tl&63)
				if want := lanes[tl][n]; got != want {
					t.Fatalf("iter %d: net %s lane %d = %v, want %v",
						iter, c.Nets[n].Name, tl, got, want)
				}
			}
		}
	}
}

// TestWide3BinaryLanesMatchWide pins the degenerate case: with no X
// anywhere the three-valued evaluator must agree with the binary wide
// simulator word for word.
func TestWide3BinaryLanesMatchWide(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := randomCircuit3(rng)
	w3 := NewWide3(c)
	w2 := NewWide(c)
	nNets := c.NumNets()
	v := make([]uint64, nNets*WideWords)
	x := make([]uint64, nNets*WideWords)
	piW := make([]uint64, len(c.PIs)*WideWords)
	ppiW := make([]uint64, c.NumFFs()*WideWords)
	for i, n := range c.PIs {
		for k := 0; k < WideWords; k++ {
			piW[i*WideWords+k] = rng.Uint64()
			v[int(n)*WideWords+k] = piW[i*WideWords+k]
		}
	}
	for i, ff := range c.FFs {
		for k := 0; k < WideWords; k++ {
			ppiW[i*WideWords+k] = rng.Uint64()
			v[int(ff.Q)*WideWords+k] = ppiW[i*WideWords+k]
		}
	}
	words := w2.Eval(piW, ppiW)
	w3.EvalNets(v, x)
	for i := range v {
		if x[i] != 0 {
			t.Fatalf("net %s turned X with binary inputs", c.Nets[i/WideWords].Name)
		}
		if v[i] != words[i] {
			t.Fatalf("net %s word %d: wide3 %x vs wide %x", c.Nets[i/WideWords].Name, i%WideWords, v[i], words[i])
		}
	}
}
