package atpg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/scan"
)

func loadISCAS(t testing.TB, name string) *netlist.Circuit {
	t.Helper()
	p, ok := iscas.ByName(name)
	if !ok {
		t.Fatalf("no ISCAS profile %q", name)
	}
	c, err := iscas.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGenerateWorkersBitIdentical pins the scheduler's determinism
// contract: Options.Workers changes wall time only. Every field of the
// Result — the pattern set bit-for-bit, detection flags and counts,
// classification counters, and the total backtrack figure — must match
// the serial schedule for any worker count.
func TestGenerateWorkersBitIdentical(t *testing.T) {
	circuits := []struct {
		name string
		c    *netlist.Circuit
	}{
		{"s27", loadS27(t)},
		{"s382", loadISCAS(t, "s382")},
	}
	for _, tc := range circuits {
		for _, nd := range []int{1, 3} {
			opts := DefaultOptions()
			opts.NDetect = nd
			opts.Workers = 1
			base, err := Generate(tc.c, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{0, 2, 4, 9} {
				opts.Workers = w
				got, err := Generate(tc.c, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s ndetect=%d: workers=%d diverges from serial: "+
						"patterns %d vs %d, backtracks %d vs %d",
						tc.name, nd, w, len(got.Patterns), len(base.Patterns),
						got.Backtracks, base.Backtracks)
				}
			}
		}
	}
}

// TestSchedulerWorkerPanicIsError: panics on the scheduler's worker
// goroutines, here from OnPodemChunk on every chunk, come back from
// generation as a *WorkerPanicError holding one of them, instead of
// killing the process or leaving the committer waiting on a chunk.
func TestSchedulerWorkerPanicIsError(t *testing.T) {
	c := loadISCAS(t, "s382")
	opts := DefaultOptions()
	opts.Workers = 2
	var chunks atomic.Int64
	ob := Observer{OnPodemChunk: func(start, n int, _ time.Duration) {
		panic(fmt.Sprintf("chunk %d", chunks.Add(1)))
	}}
	res, err := GenerateObserved(context.Background(), c, opts, ob)
	var wp *WorkerPanicError
	if !errors.As(err, &wp) || res != nil {
		t.Fatalf("GenerateObserved = %v, %v; want a nil result and a *WorkerPanicError", res, err)
	}
	if v, _ := wp.Value.(string); !strings.HasPrefix(v, "chunk ") || len(wp.Stack) == 0 {
		t.Errorf("kept panic %v with a %d-byte stack, want one of the injected panics with its stack", wp.Value, len(wp.Stack))
	}
}

// TestGenerateWorkersBitIdenticalLarge repeats the identity check on a
// circuit big enough that every scheduler path (multiple chunks, buffer
// flushes publishing saturation mid-queue, worker-side skips) engages.
func TestGenerateWorkersBitIdenticalLarge(t *testing.T) {
	c := loadISCAS(t, "s1423")
	opts := DefaultOptions()
	opts.Workers = 1
	base, err := Generate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	got, err := Generate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, base) {
		t.Errorf("s1423: workers=4 diverges from serial: patterns %d vs %d, backtracks %d vs %d",
			len(got.Patterns), len(base.Patterns), got.Backtracks, base.Backtracks)
	}
}

// TestGenerateWorkersRespectMaxPodemFaults checks the cap interacts
// correctly with speculation: workers may have run past the cap, but the
// committer must still classify the capped tail identically.
func TestGenerateWorkersRespectMaxPodemFaults(t *testing.T) {
	c := loadISCAS(t, "s382")
	for _, cap := range []int{1, 5, 20} {
		opts := DefaultOptions()
		opts.MaxRandomPatterns = 16
		opts.MaxPodemFaults = cap
		opts.Workers = 1
		base, err := Generate(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = 4
		got, err := Generate(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("cap=%d: workers=4 diverges (aborted %d vs %d)",
				cap, got.Aborted, base.Aborted)
		}
	}
}

// TestDetectAllMaskMatchesSerialCrediting drives the batched
// fault-dropping pass against a hand-rolled serial per-pattern sweep:
// same quota skipping, same per-fault credit counts, same set of
// credited lanes, for assorted nDetect quotas and pre-loaded counts.
func TestDetectAllMaskMatchesSerialCrediting(t *testing.T) {
	c := loadS27(t)
	rng := rand.New(rand.NewSource(7))
	faults := AllFaults(c)
	serial := NewFaultSim(c)
	packed := NewFaultSimW(c, 64)
	for _, nd := range []int{1, 2, 5} {
		for trial := 0; trial < 6; trial++ {
			batch := randomBatch(c, rng, 1+rng.Intn(64))
			sCount := make([]int, len(faults))
			for i := range sCount {
				sCount[i] = rng.Intn(nd + 1)
			}
			pCount := append([]int(nil), sCount...)
			sDet := make([]bool, len(faults))
			pDet := make([]bool, len(faults))

			var sCredited uint64
			for lane, p := range batch {
				serial.SetPattern(p.PI, p.State)
				for i, f := range faults {
					if sCount[i] >= nd {
						continue
					}
					if serial.Detects(f) {
						sCount[i]++
						sDet[i] = true
						sCredited |= 1 << lane
					}
				}
			}

			packed.SetPatterns(batch)
			pCredited := packed.DetectAllMask(faults, pCount, pDet, nd)[0]
			if pCredited != sCredited {
				t.Fatalf("nd=%d trial=%d: credited lanes %064b, serial %064b",
					nd, trial, pCredited, sCredited)
			}
			if !reflect.DeepEqual(pCount, sCount) {
				t.Fatalf("nd=%d trial=%d: detCount diverges", nd, trial)
			}
			if !reflect.DeepEqual(pDet, sDet) {
				t.Fatalf("nd=%d trial=%d: detected flags diverge", nd, trial)
			}
		}
	}
}

// serialRandomPhase is the per-pattern reference for the random phase:
// it draws the rng stream in the same ≤64-pattern batches Generate does
// (so the streams align), but simulates and credits one pattern at a
// time, bumping the consecutive-useless counter per pattern and stopping
// the moment it trips. Generate's three-pass batched phase must keep
// exactly these patterns and count exactly these tries.
func serialRandomPhase(c *netlist.Circuit, opts Options) (kept []scan.Pattern, tries int) {
	rng := rand.New(rand.NewSource(opts.Seed))
	faults := AllFaults(c)
	detCount := make([]int, len(faults))
	fs := NewFaultSim(c)
	nPI, nFF := len(c.PIs), c.NumFFs()
	stall := 0
	for tries < opts.MaxRandomPatterns && stall < opts.RandomStall {
		bsize := opts.MaxRandomPatterns - tries
		if bsize > 64 {
			bsize = 64
		}
		batch := make([]scan.Pattern, 0, bsize)
		for len(batch) < bsize {
			p := scan.Pattern{PI: make([]bool, nPI), State: make([]bool, nFF)}
			randFill(rng, p.PI)
			randFill(rng, p.State)
			batch = append(batch, p)
		}
		for lane := 0; lane < bsize && stall < opts.RandomStall; lane++ {
			p := batch[lane]
			fs.SetPattern(p.PI, p.State)
			n := 0
			for i, f := range faults {
				if detCount[i] >= opts.NDetect {
					continue
				}
				if fs.Detects(f) {
					detCount[i]++
					n++
				}
			}
			tries++
			if n > 0 {
				stall = 0
				kept = append(kept, p)
			} else {
				stall++
			}
		}
	}
	return kept, tries
}

// TestRandomPhaseStallMatchesSerial is the regression test for the
// random-phase stall bug: the batched phase used to count staleness per
// 64-lane batch (any credit reset the counter for the whole batch), so
// it could overrun or undercut the configured threshold by up to 63
// patterns. The fixed phase must keep the same patterns and spend the
// same number of tries as exact per-pattern processing.
func TestRandomPhaseStallMatchesSerial(t *testing.T) {
	cases := []struct {
		name    string
		c       *netlist.Circuit
		stall   int
		nDetect int
	}{
		{"s27-tight", loadS27(t), 8, 1},
		{"s27-ndetect", loadS27(t), 8, 3},
		{"s382-default", loadISCAS(t, "s382"), 32, 1},
		{"s382-tiny", loadISCAS(t, "s382"), 3, 1},
	}
	for _, tc := range cases {
		opts := DefaultOptions()
		opts.RandomStall = tc.stall
		opts.NDetect = tc.nDetect
		opts.Compact = false
		wantKept, wantTries := serialRandomPhase(tc.c, opts)

		randCount := -1
		gotTries := 0
		ob := Observer{
			OnPhase: func(phase string, _ time.Duration, patterns int) {
				if phase == "random" {
					randCount = patterns
				}
			},
			OnRandomBatch: func(patterns, _ int) { gotTries += patterns },
		}
		res, err := GenerateObserved(context.Background(), tc.c, opts, ob)
		if err != nil {
			t.Fatal(err)
		}
		if randCount != len(wantKept) {
			t.Errorf("%s: random phase kept %d patterns, serial reference kept %d",
				tc.name, randCount, len(wantKept))
			continue
		}
		if !reflect.DeepEqual(res.Patterns[:randCount], wantKept) {
			t.Errorf("%s: random-phase pattern set diverges from serial reference", tc.name)
		}
		if gotTries != wantTries {
			t.Errorf("%s: phase spent %d tries, serial reference spent %d",
				tc.name, gotTries, wantTries)
		}
	}
}
