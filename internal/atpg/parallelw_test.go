package atpg

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// TestFaultSimWAgainstSerial cross-validates the wide simulator against
// the serial one, lane by lane, over batch sizes crossing every word
// boundary, and requires silence beyond the loaded lanes.
func TestFaultSimWAgainstSerial(t *testing.T) {
	c, err := bench.ParseString(s27, "s27")
	if err != nil {
		t.Fatal(err)
	}
	faults := AllFaults(c)
	fsS := NewFaultSim(c)
	fsW := NewFaultSimW(c, sim.WideLanes)
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 63, 64, 65, 127, 128, 200, 256} {
		batch := randomBatch(c, rng, n)
		fsW.SetPatterns(batch)
		for _, f := range faults {
			mask := fsW.DetectMask(f)
			for lane := 0; lane < n; lane++ {
				fsS.SetPattern(batch[lane].PI, batch[lane].State)
				want := fsS.Detects(f)
				got := mask[lane>>6]>>uint(lane&63)&1 == 1
				if got != want {
					t.Fatalf("n=%d fault %s lane %d: wide=%v serial=%v",
						n, f.Name(c), lane, got, want)
				}
			}
			for lane := n; lane < sim.WideLanes; lane++ {
				if mask[lane>>6]>>uint(lane&63)&1 == 1 {
					t.Fatalf("n=%d fault %s: mask bit set at invalid lane %d",
						n, f.Name(c), lane)
				}
			}
		}
	}
}

// TestDetectAllMaskWidthInvariance: one 256-wide DetectAllMask pass over
// a batch must leave exactly the counts, flags, and credited lanes of
// sweeping the same patterns through the 64-lane simulator chunk by
// chunk — the lowest-lane crediting contract at work across widths.
func TestDetectAllMaskWidthInvariance(t *testing.T) {
	p, _ := iscas.ByName("s344")
	c, err := iscas.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	faults := AllFaults(c)
	rng := rand.New(rand.NewSource(5))
	batch := randomBatch(c, rng, 200)
	for _, nd := range []int{1, 2, 4} {
		wide := NewFaultSimW(c, sim.WideLanes)
		wide.SetPatterns(batch)
		wCount := make([]int, len(faults))
		wDet := make([]bool, len(faults))
		wCred := append([]uint64(nil), wide.DetectAllMask(faults, wCount, wDet, nd)...)

		narrow := NewFaultSimW(c, sim.PackedLanes)
		nCount := make([]int, len(faults))
		nDet := make([]bool, len(faults))
		var nCred []uint64
		for start := 0; start < len(batch); start += 64 {
			end := start + 64
			if end > len(batch) {
				end = len(batch)
			}
			narrow.SetPatterns(batch[start:end])
			nCred = append(nCred, narrow.DetectAllMask(faults, nCount, nDet, nd)[0])
		}
		for len(nCred) < len(wCred) {
			nCred = append(nCred, 0)
		}
		for i := range faults {
			if wCount[i] != nCount[i] || wDet[i] != nDet[i] {
				t.Fatalf("nd=%d fault %s: wide count/det %d/%v, chunked %d/%v",
					nd, faults[i].Name(c), wCount[i], wDet[i], nCount[i], nDet[i])
			}
		}
		for k := range wCred {
			if wCred[k] != nCred[k] {
				t.Fatalf("nd=%d credited word %d: wide %064b, chunked %064b",
					nd, k, wCred[k], nCred[k])
			}
		}
	}
}

// TestFaultSimWPanicsNameOffender: constructor and batch panics must name
// what went wrong — the circuit, the width, or the batch size.
func TestFaultSimWPanicsNameOffender(t *testing.T) {
	c, err := bench.ParseString(s27, "s27")
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(substr string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("no panic, want one mentioning %q", substr)
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, substr) {
				t.Fatalf("panic %v does not mention %q", r, substr)
			}
		}()
		fn()
	}
	mustPanic("257", func() {
		fs := NewFaultSimW(c, sim.WideLanes)
		fs.SetPatterns(randomBatch(c, rand.New(rand.NewSource(1)), sim.WideLanes+1))
	})
	mustPanic("invalid lane width 100", func() { NewFaultSimW(c, 100) })
	unfrozen := netlist.New("melted")
	unfrozen.AddPI("a")
	mustPanic("melted", func() { NewFaultSimW(unfrozen, 64) })
}

// BenchmarkFaultSimWBatch is BenchmarkFaultSim64Batch at the wide width:
// one 256-pattern load and a full fault sweep per iteration.
func BenchmarkFaultSimWBatch(b *testing.B) {
	p, _ := iscas.ByName("s1423")
	c, err := iscas.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	faults := AllFaults(c)
	fs := NewFaultSimW(c, sim.WideLanes)
	rng := rand.New(rand.NewSource(12))
	batch := randomBatch(c, rng, sim.WideLanes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.SetPatterns(batch)
		for _, f := range faults {
			fs.DetectMask(f)
		}
	}
}
