package main

import (
	"math"
	"sort"
	"time"
)

// tailQuantiles are the percentiles the tail rule chooses from, lowest first.
var tailQuantiles = []float64{0.50, 0.90, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending) values
// and how many samples lie beyond it. Failures enter as +Inf, so they sort
// last and count against every latency limit.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// supported reports whether the sample supports the q-quantile: at least
// minBeyond samples must lie beyond it.
func supported(sorted []float64, q float64) bool {
	_, beyond := quantile(sorted, q)
	return beyond >= minBeyond
}

// highestTail returns the highest tail percentile the sample supports, or
// ok=false when not even the median has minBeyond samples above it.
func highestTail(sorted []float64) (q, v float64, ok bool) {
	for i := len(tailQuantiles) - 1; i >= 0; i-- {
		if supported(sorted, tailQuantiles[i]) {
			v, _ = quantile(sorted, tailQuantiles[i])
			return tailQuantiles[i], v, true
		}
	}
	return 0, 0, false
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median of xs (NaN for an empty slice).
func median(xs []float64) float64 {
	v, _ := quantile(sortedCopy(xs), 0.5)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perHS divides a total by a handshake count, 0 when nothing completed.
func perHS(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
