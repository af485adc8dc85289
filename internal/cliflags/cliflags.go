// Package cliflags centralizes the flag definitions and validation that
// the scanpower commands share. cmd/tableone, cmd/scanpower and
// cmd/scanpowerd all take the same worker-pool and timeout knobs, and —
// for anything that boots or joins a scanpowerd cluster — the same
// cluster flags (-peers, -store-dir, -store-max-bytes). Defining them
// here once keeps the usage strings, defaults and validation identical
// everywhere, so a new flag lands in every command by construction.
package cliflags

import (
	"flag"
	"fmt"
	"runtime"
	"strings"
	"time"
)

// Workers registers the worker-pool size flag under name ("j" for the
// batch tools, "workers" for the daemon) and returns its value.
func Workers(fs *flag.FlagSet, name string, def int, usage string) *int {
	return fs.Int(name, def, usage)
}

// ATPGWorkers registers the -atpg-workers knob — the fault-parallel
// PODEM worker count inside the ATPG stage — and returns its value.
// Resolve with ValidateATPGWorkers after fs.Parse.
func ATPGWorkers(fs *flag.FlagSet) *int {
	return fs.Int("atpg-workers", 1,
		"fault-parallel PODEM workers inside the ATPG stage (0 = GOMAXPROCS, 1 = serial); patterns are bit-identical for every value")
}

// ValidateATPGWorkers resolves an -atpg-workers value: 0 means
// GOMAXPROCS, positive counts pass through, negative is an error.
func ValidateATPGWorkers(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("-atpg-workers must be >= 0, got %d", n)
	}
	if n == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return n, nil
}

// Timeout registers a duration flag under name and returns its value.
func Timeout(fs *flag.FlagSet, name string, def time.Duration, usage string) *time.Duration {
	return fs.Duration(name, def, usage)
}

// Cluster carries the cluster-mode flag values: peer daemons and the
// persistent result store.
type Cluster struct {
	// Peers is the raw comma-separated peer base URLs.
	Peers string
	// StoreDir is the result-store directory ("" disables persistence).
	StoreDir string
	// StoreMaxBytes caps the store's total size (0 = no cap).
	StoreMaxBytes int64
}

// ClusterFlags registers -peers, -store-dir and -store-max-bytes on fs
// and returns their values.
func ClusterFlags(fs *flag.FlagSet) *Cluster {
	var c Cluster
	fs.StringVar(&c.Peers, "peers", "",
		"comma-separated base URLs of the peer scanpowerd nodes (e.g. http://10.0.0.2:8344,http://10.0.0.3:8344); empty = single node")
	fs.StringVar(&c.StoreDir, "store-dir", "",
		"directory of the persistent result store; empty = results die with the process")
	fs.Int64Var(&c.StoreMaxBytes, "store-max-bytes", 256<<20,
		"size cap of the result store in bytes, evicting least-recently-used entries (0 = no cap)")
	return &c
}

// PeerList parses the -peers value into normalized base URLs, dropping
// empties and trailing slashes and defaulting bare host:port entries to
// http.
func (c *Cluster) PeerList() []string {
	if c == nil || strings.TrimSpace(c.Peers) == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(c.Peers, ",") {
		if p = NormalizeEndpoint(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// NormalizeEndpoint canonicalizes one node base URL: trims space and
// trailing slashes and prefixes http:// when no scheme is given. Returns
// "" for blank input.
func NormalizeEndpoint(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimRight(s, "/")
	if s == "" {
		return ""
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}
