package vcd

import (
	"strings"
	"testing"
)

// FuzzVCD drives the VCD reader with arbitrary input: ReadActivity
// returns an error, or a non-empty map of activities in [0, 1], and never
// panics. The daemon reads VCD dumps from job submissions, so a panic
// here is a request that takes down a worker.
//
// The seed corpus runs as part of `go test`; `go test -fuzz=FuzzVCD`
// explores further, and crashers it finds are kept as seeds under
// testdata/fuzz/FuzzVCD.
func FuzzVCD(f *testing.F) {
	f.Add(handwrittenVCD)
	f.Add(unknownsVCD)
	f.Add(string(nandDump(f)))
	for _, tc := range malformedVCDs {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		act, err := ReadActivity(strings.NewReader(src))
		if err != nil {
			if act != nil {
				t.Fatal("returned activities alongside an error")
			}
			return // rejection is fine; panics are not
		}
		if len(act) == 0 {
			t.Fatal("accepted a dump without activities")
		}
		for name, a := range act {
			if !(a >= 0 && a <= 1) {
				t.Fatalf("activity of %q is %v, outside [0, 1]", name, a)
			}
		}
	})
}
