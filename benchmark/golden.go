package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"repro"
	"repro/internal/atpg"
)

// goldenFile holds the SHA-256 digests every run's outputs are checked
// against. The Table I and ATPG digests depend on the ATPG seed and are
// kept for goldenSeeds; the service digests do not depend on the seed.
type goldenFile struct {
	// Table1 maps an ATPG seed to the digest of the twelve comparisons as
	// scanpower.WriteComparisonsJSON writes them.
	Table1 map[string]string `json:"table1"`
	// Circuits maps a circuit to the digest of its scanpower/comparison/v1
	// bytes at the default seed: what scanpowerd returns for a named job.
	Circuits map[string]string `json:"circuits"`
	// ATPGDeep maps an ATPG seed to the s5378 pattern set and its counts.
	ATPGDeep map[string]atpgGolden `json:"atpg_deep"`
	// Cold maps a circuit to the digest of its inline-.bench job result
	// with the job's cold-<seed>-<n> name replaced by "cold".
	Cold map[string]string `json:"cold"`
}

type atpgGolden struct {
	Digest     string  `json:"digest"`
	Patterns   int     `json:"patterns"`
	Coverage   float64 `json:"coverage"`
	Untestable int     `json:"untestable"`
	Aborted    int     `json:"aborted"`
}

// accuracyFile is the paper's Table I improvement columns (copied from
// EXPERIMENTS.md) and this reproduction's mean absolute error against them
// at the default seed. A change that only speeds the program up must leave
// the error exactly unchanged.
type accuracyFile struct {
	Source string `json:"source"`
	// Paper maps a circuit to its dyn%/stat% improvements vs traditional
	// scan and dyn%/stat% vs input control, in that order.
	Paper map[string][4]float64 `json:"paper"`
	// Seed1MAEPct is the mean absolute error per column at seed 1, keyed
	// like accuracyColumns.
	Seed1MAEPct map[string]float64 `json:"seed1_mae_pct"`
}

// accuracyColumns names the four improvement columns; each becomes the
// per-layer metric accuracy.mae_<column>_pct.
var accuracyColumns = [4]string{"dyn_vs_traditional", "stat_vs_traditional",
	"dyn_vs_input_control", "stat_vs_input_control"}

// goldenSeeds are the ATPG seeds -update-golden records digests for.
const goldenSeeds = 16

var (
	//go:embed testdata/golden.json
	goldenRaw []byte
	//go:embed testdata/accuracy.json
	accuracyRaw []byte
)

func loadGolden() (*goldenFile, *accuracyFile, error) {
	var g goldenFile
	var a accuracyFile
	if err := json.Unmarshal(goldenRaw, &g); err != nil {
		return nil, nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	if err := json.Unmarshal(accuracyRaw, &a); err != nil {
		return nil, nil, fmt.Errorf("testdata/accuracy.json: %w", err)
	}
	return &g, &a, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func seedKey(seed int64) string { return strconv.FormatInt(seed, 10) }

// maeOf returns the mean absolute error of each improvement column over
// the rows that have a paper value, summed in Table I order so the result
// is the same to the last bit on every run.
func maeOf(rows map[string]*scanpower.Comparison, paper map[string][4]float64) [4]float64 {
	var sum [4]float64
	n := 0
	for _, name := range table1Circuits {
		c, ok := rows[name]
		p, okp := paper[name]
		if !ok || !okp {
			continue
		}
		got := [4]float64{c.DynImprovementVsTraditional(), c.StaticImprovementVsTraditional(),
			c.DynImprovementVsInputControl(), c.StaticImprovementVsInputControl()}
		for i := range sum {
			sum[i] += math.Abs(got[i] - p[i])
		}
		n++
	}
	if n > 0 {
		for i := range sum {
			sum[i] /= float64(n)
		}
	}
	return sum
}

// addAccuracy stores the per-column errors as per-layer metric values.
func addAccuracy(v map[string]float64, mae [4]float64) {
	for i, col := range accuracyColumns {
		v["accuracy.mae_"+col+"_pct"] = mae[i]
	}
}

// updateGolden recomputes every digest and the seed-1 accuracy in process
// and writes them to dir. The paper columns are kept as they are.
func updateGolden(dir string) error {
	_, acc, err := loadGolden()
	if err != nil {
		return err
	}
	ctx := context.Background()
	g := goldenFile{Table1: map[string]string{}, Circuits: map[string]string{},
		ATPGDeep: map[string]atpgGolden{}, Cold: map[string]string{}}
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		in, err := prepareTable1(seed)
		if err != nil {
			return err
		}
		cmps, raw, err := in.engineRun(ctx, scanpower.Hooks{})
		if err != nil {
			return err
		}
		g.Table1[seedKey(seed)] = digest(raw)
		if seed == 1 {
			rows := map[string]*scanpower.Comparison{}
			for _, c := range cmps {
				b, err := json.Marshal(c)
				if err != nil {
					return err
				}
				g.Circuits[c.Circuit] = digest(b)
				rows[c.Circuit] = c
			}
			mae := maeOf(rows, acc.Paper)
			acc.Seed1MAEPct = map[string]float64{}
			for i, col := range accuracyColumns {
				acc.Seed1MAEPct[col] = mae[i]
			}
		}
		fmt.Fprintf(os.Stderr, "table1 seed %d done\n", seed)

		a, err := prepareATPGDeep(seed)
		if err != nil {
			return err
		}
		res, err := atpg.GenerateContext(ctx, a.c, a.opts)
		if err != nil {
			return err
		}
		g.ATPGDeep[seedKey(seed)] = atpgGolden{Digest: digest(atpgBytes(res)), Patterns: len(res.Patterns),
			Coverage: res.Coverage(), Untestable: res.Untestable, Aborted: res.Aborted}
		fmt.Fprintf(os.Stderr, "atpg-deep seed %d done\n", seed)
	}
	for _, name := range coldCircuits {
		src, err := coldSource(name)
		if err != nil {
			return err
		}
		b, err := coldReference(ctx, src)
		if err != nil {
			return err
		}
		g.Cold[name] = digest(b)
	}
	if err := writeJSON(filepath.Join(dir, "golden.json"), &g); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "accuracy.json"), acc)
}

func writeJSON(path string, v any) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
