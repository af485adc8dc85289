// Powersweep: ablation frontier of the proposed structure. Sweeps the
// number of multiplexed scan cells from 0 up to the timing-feasible
// maximum (adding the most slack-rich cells first) and prints the
// dynamic/static power at each point, so the marginal value of every
// additional MUX is visible. Also reports the contribution of the
// observability directive and of gate input reordering at the full
// configuration.
//
//	go run ./examples/powersweep
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/scan"
)

func main() {
	cfg := scanpower.DefaultConfig()
	c, err := scanpower.Benchmark("s344")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.ComputeStats())

	res, err := atpg.Generate(c, cfg.ATPG)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test set: %d patterns\n\n", len(res.Patterns))

	// Order timing-feasible flops by slack, richest first.
	muxable, a := core.AddMUX(c, cfg.Delay)
	type cand struct {
		ff    int
		slack float64
	}
	var cands []cand
	for fi, ok := range muxable {
		if ok {
			cands = append(cands, cand{fi, a.SlackAt(c.FFs[fi].Q)})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].slack > cands[j].slack })

	measure := func(opts core.Options) power.Report {
		sol, err := core.Build(c, opts)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := power.MeasureScanPacked(scan.New(sol.Circuit), res.Patterns, sol.Cfg, cfg.Leak, cfg.Cap)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	fmt.Printf("%-7s %14s %12s\n", "muxes", "dynamic µW/Hz", "static µW")
	for k := 0; k <= len(cands); k++ {
		mask := make([]bool, c.NumFFs())
		for i := 0; i < k; i++ {
			mask[cands[i].ff] = true
		}
		opts := cfg.Proposed
		opts.MuxMask = mask
		rep := measure(opts)
		fmt.Printf("%-7d %14.3e %12.2f\n", k, rep.DynamicPerHz, rep.StaticUW)
	}

	// Ablations at the full configuration.
	fmt.Println("\nablations (full MUX budget):")
	full := measure(cfg.Proposed)
	fmt.Printf("%-28s %14.3e %12.2f\n", "full proposed flow", full.DynamicPerHz, full.StaticUW)

	noObs := cfg.Proposed
	noObs.ObsDirected = false
	r := measure(noObs)
	fmt.Printf("%-28s %14.3e %12.2f\n", "without obs. directive", r.DynamicPerHz, r.StaticUW)

	noReorder := cfg.Proposed
	noReorder.ReorderInputs = false
	r = measure(noReorder)
	fmt.Printf("%-28s %14.3e %12.2f\n", "without input reordering", r.DynamicPerHz, r.StaticUW)

	noFill := cfg.Proposed
	noFill.FillTrials = 1
	r = measure(noFill)
	fmt.Printf("%-28s %14.3e %12.2f\n", "single random DC fill", r.DynamicPerHz, r.StaticUW)
}
