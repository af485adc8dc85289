// Command manifestsmoke is the `make manifest-smoke` driver: it builds
// tableone, runs Table I on s344, s382 and s444 with -manifest into a
// temporary file, and checks that the file parses as a
// scanpower/run-manifest/v1 document with one entry of four stages per
// circuit. It is the end-to-end tableone run of `make check`.
//
// It exits non-zero on the first violated expectation.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/telemetry"
)

func main() {
	if err := run([]string{"s344", "s382", "s444"}); err != nil {
		fmt.Fprintln(os.Stderr, "manifestsmoke:", err)
		os.Exit(1)
	}
}

func run(names []string) error {
	dir, err := os.MkdirTemp("", "manifestsmoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "tableone")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/tableone").CombinedOutput(); err != nil {
		return fmt.Errorf("build tableone: %v\n%s", err, out)
	}
	path := filepath.Join(dir, "manifest.json")
	cmd := exec.Command(bin, "-circuits", strings.Join(names, ","), "-manifest", path)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("tableone: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := telemetry.ReadManifest(f)
	if err != nil {
		return err
	}
	if len(m.Circuits) != len(names) {
		return fmt.Errorf("manifest has %d circuits, want %d", len(m.Circuits), len(names))
	}
	for _, cm := range m.Circuits {
		if cm.Err != "" || len(cm.Stages) != 4 {
			return fmt.Errorf("circuit %s: %d stages, error %q; want 4 stages and no error",
				cm.Name, len(cm.Stages), cm.Err)
		}
	}
	fmt.Printf("manifestsmoke: %s with %d circuits of 4 stages\n", m.Schema, len(m.Circuits))
	return nil
}
