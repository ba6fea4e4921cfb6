package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the q-th percentile of xs (nearest rank) when at least
// minBeyond samples lie beyond it, and otherwise the highest percentile
// that still has minBeyond samples beyond it. pct is the percentile
// reported. With minBeyond or fewer samples no percentile qualifies;
// tail then returns the maximum with pct 100 so the shortfall shows.
func tail(xs []float64, q float64) (v, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	if n <= minBeyond {
		return s[n-1], 100
	}
	// Nearest rank: the q-th percentile is s[ceil(q/100*n)-1].
	i := int(math.Ceil(q/100*float64(n))) - 1
	if n-1-i < minBeyond {
		i = n - 1 - minBeyond
	}
	return s[i], math.Min(q, 100*float64(i+1)/float64(n))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// slice is one interval of a closed-loop phase: a round of queries, or
// a second of ingest.
type slice struct {
	dur  time.Duration
	cpu  time.Duration // process-tree CPU time used
	ops  int           // operations completed
	work int           // units of the workload's work rate completed
}

// sliceMedians returns the median over slices of work per second and
// of CPU ms per operation. Medians keep one slow slice — a pathological
// spill, a merge burst — from moving the figure.
func sliceMedians(sl []slice) (workPerS, cpuMsPerOp float64) {
	var rate, cpu []float64
	for _, s := range sl {
		if s.dur > 0 {
			rate = append(rate, float64(s.work)/s.dur.Seconds())
		}
		if s.ops > 0 {
			cpu = append(cpu, float64(s.cpu)/1e6/float64(s.ops))
		}
	}
	return median(rate), median(cpu)
}
