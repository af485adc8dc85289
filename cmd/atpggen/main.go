// Command atpggen generates stuck-at test patterns for a circuit and
// prints them with the achieved fault coverage — the stand-in for the
// ATOM test sets used in the paper's experiments.
//
// Usage:
//
//	atpggen -circuit s344
//	atpggen -bench path/to/x.bench [-seed 7] [-no-compact]
//
// Output: one line per pattern, "<PI bits> <scan state bits>", followed by
// a summary on stderr.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/atpg"
	"repro/internal/cliflags"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

func main() {
	circuit := flag.String("circuit", "", "Table I benchmark name")
	benchFile := flag.String("bench", "", "path to an ISCAS89 .bench file")
	seed := flag.Int64("seed", 1, "ATPG random seed")
	noCompact := flag.Bool("no-compact", false, "disable reverse-order compaction")
	out := flag.String("o", "", "write patterns to this file (vectors v1 format) instead of stdout")
	fill := flag.String("fill", "random", "don't-care fill for deterministic patterns: random, 0, 1, adjacent")
	fillChains := flag.Int("fill-chains", 1, "scan-chain count adjacent fill follows (round-robin partition, matching the measurement chains)")
	nDetect := flag.Int("ndetect", 1, "require each fault be detected by at least N patterns")
	atpgWorkers := cliflags.ATPGWorkers(flag.CommandLine)
	flag.Parse()

	var (
		c   *netlist.Circuit
		err error
	)
	switch {
	case *circuit != "":
		c, err = scanpower.Benchmark(*circuit)
	case *benchFile != "":
		c, err = scanpower.LoadBench(*benchFile)
	default:
		fmt.Fprintln(os.Stderr, "atpggen: need -circuit or -bench")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "atpggen:", err)
		os.Exit(1)
	}

	opts := atpg.DefaultOptions()
	opts.Seed = *seed
	opts.Compact = !*noCompact
	opts.NDetect = *nDetect
	opts.FillChains = *fillChains
	if opts.Workers, err = cliflags.ValidateATPGWorkers(*atpgWorkers); err != nil {
		fmt.Fprintln(os.Stderr, "atpggen:", err)
		os.Exit(2)
	}
	switch *fill {
	case "random":
		opts.Fill = atpg.FillRandom
	case "0":
		opts.Fill = atpg.FillZero
	case "1":
		opts.Fill = atpg.FillOne
	case "adjacent":
		opts.Fill = atpg.FillAdjacent
	default:
		fmt.Fprintf(os.Stderr, "atpggen: unknown fill mode %q\n", *fill)
		os.Exit(2)
	}
	res, err := atpg.Generate(c, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atpggen:", err)
		os.Exit(1)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atpggen:", err)
			os.Exit(1)
		}
		set := vectors.Set{Circuit: c.Name, NPI: len(c.PIs), NFF: c.NumFFs(),
			Patterns: res.Patterns}
		if err := vectors.Write(f, set); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "atpggen:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "atpggen:", err)
			os.Exit(1)
		}
	} else {
		for _, p := range res.Patterns {
			fmt.Printf("%s %s\n", bits(p.PI), bits(p.State))
		}
	}
	fmt.Fprintf(os.Stderr, "# %s: %d patterns, %d/%d faults detected (%.2f%% coverage), %d untestable, %d aborted\n",
		c.Name, len(res.Patterns), res.DetectedCount(), len(res.Faults),
		res.Coverage()*100, res.Untestable, res.Aborted)
}

func bits(v []bool) string {
	b := make([]byte, len(v))
	for i, x := range v {
		if x {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}
