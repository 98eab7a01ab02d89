package main

import (
	"math"
	"testing"
)

func TestQuantileHarrellDavis(t *testing.T) {
	// A symmetric sample's median estimate is its centre.
	var grid []float64
	for i := 1; i <= 101; i++ {
		grid = append(grid, float64(i))
	}
	if got := quantile(grid, 0.5); math.Abs(got-51) > 1e-9 {
		t.Errorf("median of 1..101 = %v, want 51", got)
	}
	// The weights sum to one: a constant sample estimates that constant.
	flat := []float64{7, 7, 7, 7, 7}
	for _, p := range []float64{0.25, 0.5, 0.9, 0.99} {
		if got := quantile(flat, p); math.Abs(got-7) > 1e-9 {
			t.Errorf("p%v of a constant sample = %v, want 7", p*100, got)
		}
	}
	// Estimates rise with p and stay inside the sample.
	prev := 0.0
	for _, p := range []float64{0.25, 0.5, 0.75, 0.9, 0.99} {
		got := quantile(grid, p)
		if got <= prev || got < 1 || got > 101 {
			t.Errorf("p%v = %v after %v", p*100, got, prev)
		}
		prev = got
	}
	// Against the closed form I_x(2, 3) = 12x²(1/2 − 2x/3 + x²/4).
	x := 0.3
	if got, want := regIncBeta(2, 3, x), 12*x*x*(0.5-2*x/3+x*x/4); math.Abs(got-want) > 1e-12 {
		t.Errorf("I_0.3(2,3) = %v, want %v", got, want)
	}
}
