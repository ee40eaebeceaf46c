package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// median returns the middle of the samples (the mean of the two middle
// values for an even count). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is a high percentile that the sample can support.
type tail struct {
	Pct   float64 // the percentile actually reported, at most 99
	Value float64
	N     int // sample count
}

// tailPercentile returns the highest nearest-rank percentile up to 99
// that leaves at least minTail samples strictly beyond it. With fewer
// than minTail+1 samples no percentile qualifies and it returns an
// error.
func tailPercentile(xs []float64) (tail, error) {
	n := len(xs)
	if n <= minTail {
		return tail{N: n}, fmt.Errorf("percentile: %d samples, need more than %d", n, minTail)
	}
	s := sortedCopy(xs)
	// Nearest rank r (1-based) of p99; at most n-minTail ranks may
	// precede the tail.
	r := int(math.Ceil(0.99 * float64(n)))
	pct := 99.0
	if r > n-minTail {
		r = n - minTail
		pct = 100 * float64(r) / float64(n)
	}
	return tail{Pct: pct, Value: s[r-1], N: n}, nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
