package leakage

import (
	"repro/internal/netlist"
)

// AccumLeakPackedW adds every gate's leakage to the per-lane
// accumulators for a bit-parallel per-net state: words holds ww uint64
// words per net (net n's group at words[int(n)*ww:...], lane t at bit
// t&63 of word t>>6 — the layout of sim.Program.Run at ww=1 and sim.Wide
// at ww=4), and cyc[t] receives the sum of tabs[gi][input bits in lane
// t] over all gates, for t < n.
//
// The accumulation order is load-bearing: each cyc[t] is built in
// ascending gate-index order — exactly the order CircuitLeakBoolTabs sums
// one scalar state — so a caller that then folds cyc[0..n) in lane order
// reproduces the serial per-cycle leakage sums bit for bit, at any lane
// width. That is what lets the packed power kernels stay bit-identical
// to the serial one despite floating-point addition being
// non-associative.
//
// Internally the lanes are tiled eight at a time: one 8-lane block of
// accumulators stays in registers across a full walk of the gate list,
// and each gate's eight table indices are formed in a single word by
// byte-spreading its input words (spreadTab turns 8 packed bits into 8
// bytes; OR-ing shifted spreads interleaves the inputs). Every lane
// still gets exactly one add per gate, of the same table value, in the
// same ascending gate order, so per-lane sums are unchanged down to the
// ulp — at roughly a third of the cost of extracting each lane's bits
// serially, because the cyc loads and stores amortize over the whole
// gate list instead of repeating per gate.
func (m *Model) AccumLeakPackedW(c *netlist.Circuit, words []uint64, ww, n int, tabs [][]float64, cyc []float64) {
	base := 0
	for ; base+8 <= n; base += 8 {
		k := base >> 6
		sh := uint(base & 63)
		cw := cyc[base : base+8 : base+8]
		s0, s1, s2, s3 := cw[0], cw[1], cw[2], cw[3]
		s4, s5, s6, s7 := cw[4], cw[5], cw[6], cw[7]
		for gi := range c.Gates {
			g := &c.Gates[gi]
			tab := tabs[gi]
			var u uint64
			switch len(g.Inputs) {
			case 1:
				u = spreadTab[byte(words[int(g.Inputs[0])*ww+k]>>sh)]
				t2 := tab[0:2:2]
				s0 += t2[u&1]
				s1 += t2[u>>8&1]
				s2 += t2[u>>16&1]
				s3 += t2[u>>24&1]
				s4 += t2[u>>32&1]
				s5 += t2[u>>40&1]
				s6 += t2[u>>48&1]
				s7 += t2[u>>56&1]
			case 2:
				u = spreadTab[byte(words[int(g.Inputs[0])*ww+k]>>sh)] |
					spreadTab[byte(words[int(g.Inputs[1])*ww+k]>>sh)]<<1
				t4 := tab[0:4:4]
				s0 += t4[u&3]
				s1 += t4[u>>8&3]
				s2 += t4[u>>16&3]
				s3 += t4[u>>24&3]
				s4 += t4[u>>32&3]
				s5 += t4[u>>40&3]
				s6 += t4[u>>48&3]
				s7 += t4[u>>56&3]
			case 3:
				u = spreadTab[byte(words[int(g.Inputs[0])*ww+k]>>sh)] |
					spreadTab[byte(words[int(g.Inputs[1])*ww+k]>>sh)]<<1 |
					spreadTab[byte(words[int(g.Inputs[2])*ww+k]>>sh)]<<2
				t8 := tab[0:8:8]
				s0 += t8[u&7]
				s1 += t8[u>>8&7]
				s2 += t8[u>>16&7]
				s3 += t8[u>>24&7]
				s4 += t8[u>>32&7]
				s5 += t8[u>>40&7]
				s6 += t8[u>>48&7]
				s7 += t8[u>>56&7]
			case 4:
				u = spreadTab[byte(words[int(g.Inputs[0])*ww+k]>>sh)] |
					spreadTab[byte(words[int(g.Inputs[1])*ww+k]>>sh)]<<1 |
					spreadTab[byte(words[int(g.Inputs[2])*ww+k]>>sh)]<<2 |
					spreadTab[byte(words[int(g.Inputs[3])*ww+k]>>sh)]<<3
				t16 := tab[0:16:16]
				s0 += t16[u&15]
				s1 += t16[u>>8&15]
				s2 += t16[u>>16&15]
				s3 += t16[u>>24&15]
				s4 += t16[u>>32&15]
				s5 += t16[u>>40&15]
				s6 += t16[u>>48&15]
				s7 += t16[u>>56&15]
			default:
				// Wider gates are rare; extract their lanes serially.
				for t := uint(0); t < 8; t++ {
					idx := 0
					for i, in := range g.Inputs {
						idx |= int(words[int(in)*ww+k]>>(sh+t)&1) << i
					}
					v := tab[idx]
					switch t {
					case 0:
						s0 += v
					case 1:
						s1 += v
					case 2:
						s2 += v
					case 3:
						s3 += v
					case 4:
						s4 += v
					case 5:
						s5 += v
					case 6:
						s6 += v
					case 7:
						s7 += v
					}
				}
			}
		}
		cw[0], cw[1], cw[2], cw[3] = s0, s1, s2, s3
		cw[4], cw[5], cw[6], cw[7] = s4, s5, s6, s7
	}
	// Tail lanes of a batch not a multiple of 8, one lane at a time.
	for ; base < n; base++ {
		k, bit := base>>6, uint(base&63)
		s := cyc[base]
		for gi := range c.Gates {
			g := &c.Gates[gi]
			idx := 0
			for i, in := range g.Inputs {
				idx |= int(words[int(in)*ww+k]>>bit&1) << i
			}
			s += tabs[gi][idx]
		}
		cyc[base] = s
	}
}

// spreadTab[b] holds byte b spread one bit per byte: byte i of the word
// is bit i of b. OR-ing left-shifted spreads of several input words
// builds 8 lanes' table indices in one word-wide operation.
var spreadTab = func() (t [256]uint64) {
	for b := 0; b < 256; b++ {
		var u uint64
		for i := uint(0); i < 8; i++ {
			if b>>i&1 == 1 {
				u |= 1 << (8 * i)
			}
		}
		t[b] = u
	}
	return
}()

// validMask returns the valid-lane mask for one 64-lane word holding the
// remaining rem lanes of a batch (rem >= 1; full word when rem >= 64).
func validMask(rem int) uint64 {
	if rem >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(rem) - 1
}
