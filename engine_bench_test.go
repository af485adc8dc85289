package scanpower

import (
	"context"
	"testing"
)

// BenchmarkCompareCached measures the steady-state cost of a Compare once
// the Engine's pattern cache is warm — the repeated-experiment case the
// memoized ATPG layer exists for.
func BenchmarkCompareCached(b *testing.B) {
	c, err := Benchmark("s344")
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(DefaultConfig())
	if _, err := eng.Compare(context.Background(), c); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Compare(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}
