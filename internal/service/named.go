package service

import (
	"fmt"
	"sync"

	"repro"
	"repro/internal/iscas"
)

// namedKey is one built-in circuit's entry in the named-submit table: the
// fingerprint and primary-input names of the circuit scanpower.Benchmark
// generates for its profile. A named submit keys, coalesces, reads the
// store and binds its activity block from this entry, so it generates no
// circuit; only the worker that runs an admitted job does.
type namedKey struct {
	once   sync.Once
	name   string
	fp     uint64
	inputs []string
	err    error
}

// namedKeys holds one entry per iscas.Profiles profile. It is keyed by the
// profile iscas.ByName returns, never by a client's string, so no request
// can add an entry. Entries fill on the first submit that names them:
// filling all twelve up front would cost tens of milliseconds at startup.
var namedKeys = func() map[iscas.Profile]*namedKey {
	m := make(map[iscas.Profile]*namedKey, len(iscas.Profiles))
	for _, p := range iscas.Profiles {
		m[p] = &namedKey{name: p.Name}
	}
	return m
}()

// generateBenchmark generates a built-in circuit by name. It is a variable
// so tests can count generations.
var generateBenchmark = scanpower.Benchmark

// lookupNamed returns the table entry of the built-in circuit name,
// filling it on first use.
func lookupNamed(name string) (*namedKey, error) {
	p, ok := iscas.ByName(name)
	if !ok {
		// Benchmark's unknown-name error, which it returns before
		// generating anything.
		_, err := scanpower.Benchmark(name)
		return nil, err
	}
	k := namedKeys[p]
	k.once.Do(func() {
		// Set first, so a generation that panics leaves the entry failed
		// rather than keyed on a zero fingerprint.
		k.err = fmt.Errorf("service: generating %s panicked", p.Name)
		c, err := generateBenchmark(p.Name)
		if err != nil {
			k.err = err
			return
		}
		k.fp, k.inputs, k.err = c.Fingerprint(), piNames(c), nil
	})
	return k, k.err
}
