// Techscaling: reproduces the paper's motivating trend. The introduction
// argues that "dynamic power has been the dominant part of power
// dissipation in CMOS circuits, however, in future technologies the
// static portion of power dissipation will outreach the dynamic portion"
// — which is why the technique optimizes both at once.
//
// This experiment measures traditional-scan power of one benchmark across
// technology generations (the calibrated 45 nm model scaled by classic
// per-node leakage/capacitance trends) at a 100 MHz shift clock and
// prints the static share of total scan power per node.
//
//	go run ./examples/techscaling
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	c, err := scanpower.Benchmark("s641")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.ComputeStats())
	const shiftHz = 100e6
	fmt.Printf("traditional scan @ %.0f MHz shift clock\n\n", shiftHz/1e6)

	eng := scanpower.NewEngine(scanpower.DefaultConfig())
	points, err := eng.StudyTechScaling(context.Background(), c, shiftHz)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%6s %6s %14s %14s %14s\n", "node", "VDD", "dynamic µW", "static µW", "static share")
	for _, p := range points {
		bar := ""
		for i := 0; i < int(p.StaticShare*40+0.5); i++ {
			bar += "#"
		}
		fmt.Printf("%4dnm %5.2fV %14.2f %14.2f %13.1f%%  %s\n",
			p.NM, p.VDD, p.DynamicUW, p.StaticUW, p.StaticShare*100, bar)
	}
	fmt.Println("\nthe static share grows monotonically and dominates at the")
	fmt.Println("scaled nodes — the paper's reason to attack both components.")
}
