package leakage

import (
	"math/bits"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// CircuitTables3 precomputes, for every gate of the frozen circuit, its
// X-averaged leakage table: entry xmask<<k | bits (k = the gate's arity)
// holds the expected leakage when the inputs flagged in xmask are X and
// the remaining inputs carry the binary pattern bits (bits must be clear
// at X positions). Entries with bits overlapping xmask are unused.
//
// Every entry is built by the exact refinement enumeration GateLeak
// performs — same visit order, same division — so a lookup is bit-for-bit
// the float GateLeak would return for the same three-valued pattern. That
// makes the table the fast path of the minimum-leakage fill: the scalar
// backend replaces one map lookup plus a 2^nX enumeration per gate per
// trial with a single indexed load, and the packed backend resolves whole
// 64-trial words against it, both without drifting from the reference
// accumulation by even an ulp.
func (m *Model) CircuitTables3(c *netlist.Circuit) [][]float64 {
	type key = tableKey
	cache := make(map[key][]float64)
	tabs3 := make([][]float64, c.NumGates())
	for gi := range c.Gates {
		g := &c.Gates[gi]
		k := key{g.Type, len(g.Inputs)}
		avg, ok := cache[k]
		if !ok {
			avg = m.buildTable3(g.Type, len(g.Inputs))
			cache[k] = avg
		}
		tabs3[gi] = avg
	}
	return tabs3
}

// buildTable3 assembles the X-averaged table for one cell, replicating
// GateLeak's enumeration (ascending refinement mask, X positions scattered
// in ascending input order) so every entry is bit-identical to it.
func (m *Model) buildTable3(t logic.GateType, arity int) []float64 {
	tab, ok := m.tables[tableKey{t, arity}]
	if !ok {
		m.buildTable(t, arity)
		tab = m.tables[tableKey{t, arity}]
	}
	size := 1 << uint(arity)
	avg := make([]float64, size*size)
	var xPos []int
	for xmask := 0; xmask < size; xmask++ {
		xPos = xPos[:0]
		for i := 0; i < arity; i++ {
			if xmask>>i&1 == 1 {
				xPos = append(xPos, i)
			}
		}
		for base := 0; base < size; base++ {
			if base&xmask != 0 {
				continue
			}
			sum := 0.0
			count := 0
			for mask := 0; mask < 1<<uint(len(xPos)); mask++ {
				bits := base
				for j, p := range xPos {
					if mask>>j&1 == 1 {
						bits |= 1 << uint(p)
					}
				}
				sum += tab[bits]
				count++
			}
			avg[xmask<<uint(arity)|base] = sum / float64(count)
		}
	}
	return avg
}

// CircuitLeakTabs3 is CircuitLeak using tables from CircuitTables3: the
// same expected total leakage under a three-valued per-net state, summed
// in the same gate order, bit-identical to the reference — minus the
// per-gate map lookup and refinement enumeration.
func (m *Model) CircuitLeakTabs3(c *netlist.Circuit, state []logic.Value, tabs3 [][]float64) float64 {
	total := 0.0
	for gi := range c.Gates {
		g := &c.Gates[gi]
		k := uint(len(g.Inputs))
		bits, xmask := 0, 0
		for i, in := range g.Inputs {
			switch state[in] {
			case logic.One:
				bits |= 1 << uint(i)
			case logic.X:
				xmask |= 1 << uint(i)
			}
		}
		total += tabs3[gi][xmask<<k|bits]
	}
	return total
}

// AccumLeak3PackedW is AccumLeakPackedW for the dual-rail three-valued
// lane layout of sim.Wide3: v and x hold ww words per net carrying each
// net's packed value/unknown bits, and cyc[t] receives lane t's
// X-averaged leakage sum over all gates, for t < n, using tables from
// CircuitTables3.
//
// As with AccumLeakPackedW, the accumulation order is load-bearing: each
// cyc[t] is built in ascending gate-index order — exactly the order
// CircuitLeak (and CircuitLeakTabs3) sums one scalar state — so per-lane
// totals are bit-identical to the serial evaluation of the same
// three-valued state.
//
// Like AccumLeakPackedW, the lanes are tiled eight at a time — one
// 8-lane block of accumulators stays in registers across a full walk of
// the gate list — and each gate's eight table indices
// (xmask<<arity | bits) are formed in a single word by byte-spreading
// the dual-rail words; the normalized encoding (v clear where x is set)
// is exactly the "bits clear at X positions" convention of
// CircuitTables3. Every lane still gets exactly one add per gate, in
// ascending gate-index order, so per-lane totals remain bit-identical
// to CircuitLeakTabs3 at any lane width.
func (m *Model) AccumLeak3PackedW(c *netlist.Circuit, v, x []uint64, ww, n int, tabs3 [][]float64, cyc []float64) {
	base := 0
	for ; base+8 <= n; base += 8 {
		k := base >> 6
		sh := uint(base & 63)
		cw := cyc[base : base+8 : base+8]
		s0, s1, s2, s3 := cw[0], cw[1], cw[2], cw[3]
		s4, s5, s6, s7 := cw[4], cw[5], cw[6], cw[7]
		for gi := range c.Gates {
			g := &c.Gates[gi]
			tab := tabs3[gi]
			var u uint64
			switch len(g.Inputs) {
			case 1:
				ia := int(g.Inputs[0])*ww + k
				u = spreadTab[byte(v[ia]>>sh)] | spreadTab[byte(x[ia]>>sh)]<<1
				t4 := tab[0:4:4]
				s0 += t4[u&3]
				s1 += t4[u>>8&3]
				s2 += t4[u>>16&3]
				s3 += t4[u>>24&3]
				s4 += t4[u>>32&3]
				s5 += t4[u>>40&3]
				s6 += t4[u>>48&3]
				s7 += t4[u>>56&3]
			case 2:
				ia, ib := int(g.Inputs[0])*ww+k, int(g.Inputs[1])*ww+k
				u = spreadTab[byte(v[ia]>>sh)] | spreadTab[byte(v[ib]>>sh)]<<1 |
					spreadTab[byte(x[ia]>>sh)]<<2 | spreadTab[byte(x[ib]>>sh)]<<3
				t16 := tab[0:16:16]
				s0 += t16[u&15]
				s1 += t16[u>>8&15]
				s2 += t16[u>>16&15]
				s3 += t16[u>>24&15]
				s4 += t16[u>>32&15]
				s5 += t16[u>>40&15]
				s6 += t16[u>>48&15]
				s7 += t16[u>>56&15]
			case 3:
				ia, ib, id := int(g.Inputs[0])*ww+k, int(g.Inputs[1])*ww+k, int(g.Inputs[2])*ww+k
				u = spreadTab[byte(v[ia]>>sh)] | spreadTab[byte(v[ib]>>sh)]<<1 | spreadTab[byte(v[id]>>sh)]<<2 |
					spreadTab[byte(x[ia]>>sh)]<<3 | spreadTab[byte(x[ib]>>sh)]<<4 | spreadTab[byte(x[id]>>sh)]<<5
				t64 := tab[0:64:64]
				s0 += t64[u&63]
				s1 += t64[u>>8&63]
				s2 += t64[u>>16&63]
				s3 += t64[u>>24&63]
				s4 += t64[u>>32&63]
				s5 += t64[u>>40&63]
				s6 += t64[u>>48&63]
				s7 += t64[u>>56&63]
			case 4:
				ia, ib := int(g.Inputs[0])*ww+k, int(g.Inputs[1])*ww+k
				id, ie := int(g.Inputs[2])*ww+k, int(g.Inputs[3])*ww+k
				u = spreadTab[byte(v[ia]>>sh)] | spreadTab[byte(v[ib]>>sh)]<<1 |
					spreadTab[byte(v[id]>>sh)]<<2 | spreadTab[byte(v[ie]>>sh)]<<3 |
					spreadTab[byte(x[ia]>>sh)]<<4 | spreadTab[byte(x[ib]>>sh)]<<5 |
					spreadTab[byte(x[id]>>sh)]<<6 | spreadTab[byte(x[ie]>>sh)]<<7
				t256 := tab[0:256:256]
				s0 += t256[u&255]
				s1 += t256[u>>8&255]
				s2 += t256[u>>16&255]
				s3 += t256[u>>24&255]
				s4 += t256[u>>32&255]
				s5 += t256[u>>40&255]
				s6 += t256[u>>48&255]
				s7 += t256[u>>56&255]
			default:
				// Wider gates are rare; extract their lanes serially.
				ar := uint(len(g.Inputs))
				for t := uint(0); t < 8; t++ {
					bits, xmask := 0, 0
					for i, in := range g.Inputs {
						bits |= int(v[int(in)*ww+k]>>(sh+t)&1) << uint(i)
						xmask |= int(x[int(in)*ww+k]>>(sh+t)&1) << uint(i)
					}
					val := tab[xmask<<ar|bits]
					switch t {
					case 0:
						s0 += val
					case 1:
						s1 += val
					case 2:
						s2 += val
					case 3:
						s3 += val
					case 4:
						s4 += val
					case 5:
						s5 += val
					case 6:
						s6 += val
					case 7:
						s7 += val
					}
				}
			}
		}
		cw[0], cw[1], cw[2], cw[3] = s0, s1, s2, s3
		cw[4], cw[5], cw[6], cw[7] = s4, s5, s6, s7
	}
	// Tail lanes of a batch not a multiple of 8, one lane at a time.
	for ; base < n; base++ {
		wk, bit := base>>6, uint(base&63)
		s := cyc[base]
		for gi := range c.Gates {
			g := &c.Gates[gi]
			ar := uint(len(g.Inputs))
			bits, xmask := 0, 0
			for i, in := range g.Inputs {
				bits |= int(v[int(in)*ww+wk]>>bit&1) << uint(i)
				xmask |= int(x[int(in)*ww+wk]>>bit&1) << uint(i)
			}
			s += tabs3[gi][xmask<<ar|bits]
		}
		cyc[base] = s
	}
}

// AccumLineLeakPackedW folds one packed batch into the per-line
// conditional-leakage accumulators of the observability estimate: words
// holds ww words per net (len(words)/ww nets), lane t of net n at bit
// t&63 of words[int(n)*ww+t>>6], cyc[t] the total circuit leakage of lane
// t, and for every net the lanes where it carried 1 add cyc[t] to sum1[n]
// and bump cnt1[n], for t < n only.
//
// Per net, lanes are visited in ascending order (ascending word, then
// ascending bit) — the order the scalar estimator adds samples — so sum1
// stays bit-identical to the serial Monte-Carlo accumulation when callers
// feed batches in sample order.
func AccumLineLeakPackedW(words []uint64, ww, n int, cyc []float64, sum1 []float64, cnt1 []int) {
	nets := len(words) / ww
	for ni := 0; ni < nets; ni++ {
		s := sum1[ni]
		cnt := 0
		for k, base := 0, 0; base < n; k, base = k+1, base+64 {
			w := words[ni*ww+k] & validMask(n-base)
			if w == 0 {
				continue
			}
			cw := cyc[base:]
			for m := w; m != 0; m &= m - 1 {
				s += cw[bits.TrailingZeros64(m)]
			}
			cnt += bits.OnesCount64(w)
		}
		if cnt != 0 {
			sum1[ni] = s
			cnt1[ni] += cnt
		}
	}
}
