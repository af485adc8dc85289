package service

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/netlist"
	"repro/internal/store"
)

// watchedCircuit returns a fresh, mapped copy of the named circuit (s27
// or a Table I benchmark) with a channel that closes once the garbage
// collector has freed it.
func watchedCircuit(t *testing.T, name string) (*netlist.Circuit, <-chan struct{}) {
	t.Helper()
	var c *netlist.Circuit
	var err error
	if name == "s27" {
		if c, err = scanpower.ParseBench(s27Bench, name); err == nil {
			c, err = scanpower.Prepare(c)
		}
	} else {
		c, err = scanpower.Benchmark(name)
	}
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(c, func(*netlist.Circuit) { close(freed) })
	return c, freed
}

// awaitFreed collects garbage until freed closes, and fails the test if
// it does not within a few seconds: something still references the
// circuit.
func awaitFreed(t *testing.T, freed <-chan struct{}, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("the circuit of a %s job is still reachable", what)
		}
	}
}

// TestTerminalJobDropsCircuit: a job that settled keeps no reference to
// its netlist, so the job table retains only what its responses read.
// The circuit of a done, a failed, a canceled-while-queued and a
// store-hit job each becomes collectable while the job is still
// retained.
func TestTerminalJobDropsCircuit(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	park := blockingRunner(started, release)
	var svc *Service
	// s27 runs on the Engine, s344 fails and s382 parks the one worker.
	runner := func(ctx context.Context, c *netlist.Circuit, cfg scanpower.Config) (*scanpower.Comparison, error) {
		switch c.Name {
		case "s344":
			return nil, errors.New("injected failure")
		case "s382":
			return park(ctx, c, cfg)
		}
		return svc.Engine().CompareWith(ctx, c, cfg)
	}
	st, err := store.Open(t.TempDir(), store.Options{WireSchema: scanpower.ComparisonSchemaV1})
	if err != nil {
		t.Fatal(err)
	}
	svc, _ = newTestServer(t, Options{Workers: 1, QueueSize: 1, Runner: runner, Store: st})

	// submit admits c and returns the job; c is unreachable from the
	// caller once it returns.
	submit := func(svc *Service, name string) (*Job, <-chan struct{}) {
		t.Helper()
		c, freed := watchedCircuit(t, name)
		j, _, err := svc.Submit(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		return j, freed
	}
	settle := func(svc *Service, j *Job, want JobState) {
		t.Helper()
		<-svc.Done(j)
		if got := svc.Snapshot(j).State; got != want {
			t.Fatalf("job %s settled as %s, want %s", j.ID, got, want)
		}
	}

	j, freed := submit(svc, "s27")
	settle(svc, j, StateDone)
	awaitFreed(t, freed, "done")

	j, freed = submit(svc, "s344")
	settle(svc, j, StateFailed)
	awaitFreed(t, freed, "failed")

	parked, _ := submit(svc, "s382")
	<-started
	j, freed = submit(svc, "s444")
	if !svc.Cancel(j) {
		t.Fatal("Cancel found the queued job already settled")
	}
	settle(svc, j, StateCanceled)
	awaitFreed(t, freed, "canceled-while-queued")
	close(release)
	settle(svc, parked, StateDone)

	// A second daemon on the same store serves s27 from disk.
	again, _ := newTestServer(t, Options{Workers: 1, Store: st})
	j, freed = submit(again, "s27")
	settle(again, j, StateDone)
	if again.Stats().Store.Hits != 1 {
		t.Fatal("the resubmit was not served from the store")
	}
	awaitFreed(t, freed, "store-hit")

	for _, s := range []*Service{svc, again} {
		if s.Stats().Jobs == 0 {
			t.Fatal("the job table dropped its jobs; the test shows nothing")
		}
	}
}
