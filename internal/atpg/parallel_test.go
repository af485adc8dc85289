package atpg

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sim"
)

// TestFaultSim64AgainstSerial cross-validates the 64-lane bit-parallel
// simulator (the width of Generate's random phase and drop buffer)
// against the serial one, lane by lane, over random batches.
func TestFaultSim64AgainstSerial(t *testing.T) {
	c, err := bench.ParseString(s27, "s27")
	if err != nil {
		t.Fatal(err)
	}
	faults := AllFaults(c)
	fsS := NewFaultSim(c)
	fsP := NewFaultSimW(c, sim.PackedLanes)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(64)
		batch := make([]scan.Pattern, n)
		for i := range batch {
			batch[i] = scan.Pattern{
				PI:    make([]bool, len(c.PIs)),
				State: make([]bool, c.NumFFs()),
			}
			sim.RandomVector(rng, batch[i].PI)
			sim.RandomVector(rng, batch[i].State)
		}
		fsP.SetPatterns(batch)
		for _, f := range faults {
			mask := fsP.DetectMask(f)[0]
			for lane := 0; lane < n; lane++ {
				fsS.SetPattern(batch[lane].PI, batch[lane].State)
				want := fsS.Detects(f)
				got := mask&(1<<lane) != 0
				if got != want {
					t.Fatalf("trial %d fault %s lane %d: parallel=%v serial=%v",
						trial, f.Name(c), lane, got, want)
				}
			}
		}
	}
}

func TestFaultSim64LaneMaskRespectsBatchSize(t *testing.T) {
	c, err := bench.ParseString(s27, "s27")
	if err != nil {
		t.Fatal(err)
	}
	// One pattern: only lane 0 may ever be set.
	p := scan.Pattern{PI: make([]bool, len(c.PIs)), State: make([]bool, c.NumFFs())}
	fs := NewFaultSimW(c, sim.PackedLanes)
	fs.SetPatterns([]scan.Pattern{p})
	for _, f := range AllFaults(c) {
		if mask := fs.DetectMask(f)[0]; mask&^1 != 0 {
			t.Fatalf("fault %s: mask %b has bits beyond lane 0", f.Name(c), mask)
		}
	}
}

func TestFaultSim64PanicsOnBadBatch(t *testing.T) {
	c, err := bench.ParseString(s27, "s27")
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultSimW(c, sim.PackedLanes)
	defer func() {
		if recover() == nil {
			t.Fatal("empty batch did not panic")
		}
	}()
	fs.SetPatterns(nil)
}

// TestGenerateParallelPhaseCoverageParity: the 64-way random phase must
// not lose coverage relative to an independent full re-simulation of the
// kept patterns plus PODEM top-ups.
func TestGenerateParallelPhaseCoverageParity(t *testing.T) {
	p, _ := iscas.ByName("s344")
	c, err := iscas.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	indep := CoverageOf(c, res.Patterns)
	claimed := float64(res.DetectedCount()) / float64(len(res.Faults))
	if indep < claimed-1e-12 {
		t.Errorf("claimed coverage %v exceeds independent re-simulation %v", claimed, indep)
	}
}

func BenchmarkFaultSimSerialBatch(b *testing.B) {
	p, _ := iscas.ByName("s1423")
	c, err := iscas.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	faults := AllFaults(c)
	fs := NewFaultSim(c)
	rng := rand.New(rand.NewSource(12))
	batch := randomBatch(c, rng, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pat := range batch {
			fs.SetPattern(pat.PI, pat.State)
			for _, f := range faults {
				fs.Detects(f)
			}
		}
	}
}

func BenchmarkFaultSim64Batch(b *testing.B) {
	p, _ := iscas.ByName("s1423")
	c, err := iscas.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	faults := AllFaults(c)
	fs := NewFaultSimW(c, sim.PackedLanes)
	rng := rand.New(rand.NewSource(12))
	batch := randomBatch(c, rng, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.SetPatterns(batch)
		for _, f := range faults {
			fs.DetectMask(f)
		}
	}
}

func randomBatch(c *netlist.Circuit, rng *rand.Rand, n int) []scan.Pattern {
	batch := make([]scan.Pattern, n)
	for i := range batch {
		batch[i] = scan.Pattern{
			PI:    make([]bool, len(c.PIs)),
			State: make([]bool, c.NumFFs()),
		}
		sim.RandomVector(rng, batch[i].PI)
		sim.RandomVector(rng, batch[i].State)
	}
	return batch
}
