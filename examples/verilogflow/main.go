// Verilogflow: the downstream-user story end to end. A design arrives as
// structural Verilog; we map it to the library, build the proposed
// low-power scan structure, generate (and save) a test set, replay it on
// both structures, and dump the scan-mode waveforms to a VCD for a
// waveform viewer — every interchange format the repository speaks, in
// one pipeline.
//
//	go run ./examples/verilogflow
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/scan"
	"repro/internal/vcd"
	"repro/internal/vectors"
	"repro/internal/verilog"
)

// A small traffic-light-style controller in structural Verilog.
const design = `
// three-state controller with a mode input
module traffic (mode, sensor, red, green);
  input mode, sensor;
  output red, green;
  wire s0, s1, d0, d1, n1, n2, n3, n4;
  dff u_s0 (s0, d0);
  dff u_s1 (s1, d1);
  nand u1 (n1, s0, mode);
  nor  u2 (n2, n1, sensor);
  not  u3 (n3, s1);
  nand u4 (d0, n2, n3);
  nor  u5 (d1, s0, n2);
  nand u6 (n4, s0, s1);
  not  u7 (red, n4);
  nor  u8 (green, s0, s1);
endmodule
`

func main() {
	tmp, err := os.MkdirTemp("", "verilogflow")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	// 1. Parse the Verilog and map it onto the NAND/NOR/INV library.
	raw, err := verilog.ParseString(design, "traffic")
	if err != nil {
		log.Fatal(err)
	}
	c, err := scanpower.Prepare(raw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("parsed:", c.ComputeStats())

	// 2. Build the proposed structure.
	cfg := scanpower.DefaultConfig()
	sol, err := core.Build(c, cfg.Proposed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proposed: %d/%d cells muxed, %d gates reordered\n",
		sol.Stats.MuxCount, c.NumFFs(), sol.Stats.ReorderedGates)

	// 3. ATPG with minimum-transition fill; save the set to disk.
	aopts := cfg.ATPG
	aopts.Fill = atpg.FillAdjacent
	res, err := atpg.Generate(c, aopts)
	if err != nil {
		log.Fatal(err)
	}
	patPath := filepath.Join(tmp, "traffic.pat")
	pf, err := os.Create(patPath)
	if err != nil {
		log.Fatal(err)
	}
	set := vectors.Set{Circuit: c.Name, NPI: len(c.PIs), NFF: c.NumFFs(), Patterns: res.Patterns}
	if err := vectors.Write(pf, set); err != nil {
		log.Fatal(err)
	}
	pf.Close()
	fmt.Printf("ATPG: %d patterns, %.1f%% coverage, saved to %s\n",
		len(res.Patterns), res.Coverage()*100, patPath)

	// 4. Replay the stored set on both structures.
	rf, err := os.Open(patPath)
	if err != nil {
		log.Fatal(err)
	}
	stored, err := vectors.Read(rf)
	rf.Close()
	if err != nil {
		log.Fatal(err)
	}
	if err := stored.Validate(c); err != nil {
		log.Fatal(err)
	}
	trad, err := power.MeasureScanPacked(context.Background(), scan.New(c), stored.Patterns, scan.Traditional(c), cfg.Leak, cfg.Cap)
	if err != nil {
		log.Fatal(err)
	}
	prop, err := power.MeasureScanPacked(context.Background(), scan.New(sol.Circuit), stored.Patterns, sol.Cfg, cfg.Leak, cfg.Cap)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traditional: %s\n", trad)
	fmt.Printf("proposed:    %s\n", prop)
	fmt.Printf("dynamic improvement: %.1f%%\n",
		power.Improvement(trad.DynamicPerHz, prop.DynamicPerHz))

	// 5. Waveforms of the proposed structure for a viewer.
	vcdPath := filepath.Join(tmp, "traffic.vcd")
	vf, err := os.Create(vcdPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := vcd.DumpScan(vf, scan.New(sol.Circuit), stored.Patterns, sol.Cfg, nil); err != nil {
		log.Fatal(err)
	}
	vf.Close()
	data, _ := os.ReadFile(vcdPath)
	fmt.Printf("VCD: %d bytes, %d signals\n", len(data), strings.Count(string(data), "$var"))

	// 6. And back out as Verilog (the DFT netlist with MUXes stitched in).
	dft, err := core.InsertMuxes(c, sol.Cfg.Muxed, sol.Cfg.MuxVal)
	if err != nil {
		log.Fatal(err)
	}
	vPath := filepath.Join(tmp, "traffic_dft.v")
	df, err := os.Create(vPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := verilog.Write(df, dft); err != nil {
		log.Fatal(err)
	}
	df.Close()
	fmt.Printf("DFT netlist written as Verilog: %s (%s)\n", vPath, dft.ComputeStats())
}
