package main

import "testing"

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2.5, 7.25, 1.0, 9.5, 4.0}, [3]float64{1.75, 4.0, 8.375}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	// Nearest rank picks a sample; it never interpolates between two.
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("percentile([1 2 3 4], 50) = %v, want 2", got)
	}
	if got := percentile([]float64{10, 40, 20, 30}, 90); got != 40 {
		t.Errorf("percentile p90 of 4 samples = %v, want the maximum", got)
	}
}
