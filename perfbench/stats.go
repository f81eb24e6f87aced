package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a tail
// figure resting on fewer is one slow request, not a percentile.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the 1-based nearest-rank position of percentile p (0 < p <=
// 100) in n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted, failing when
// fewer than minBeyond samples lie above it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	r := rank(n, p)
	if beyond := n - r; p < 100 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted[r-1], nil
}

// schedule is an open-loop arrival schedule: request i is due at
// start + i·interval whether or not earlier requests have been answered.
type schedule struct {
	start    time.Time
	interval time.Duration
}

// due returns when request i should be sent.
func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// openLoopTimes splits one open-loop request's timeline: latency runs from
// when the request was due, so a stall that delays sending is charged to
// every request it delays; late is how far behind schedule the generator
// sent it.
func openLoopTimes(due, sent, answered time.Time) (latency, late time.Duration) {
	return answered.Sub(due), sent.Sub(due)
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
