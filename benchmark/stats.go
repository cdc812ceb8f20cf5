package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 < p <= 1) of xs by the
// nearest-rank rule: the smallest element with at least p of the sample
// at or below it. xs need not be sorted; an empty sample gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the nearest-rank index of the p-quantile in a sorted
// sample of n.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// median returns the middle value of xs; for an even count, the mean of
// the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// windowStats are one measurement window's figures.
type windowStats struct {
	n   int     // verified reads completed in the window
	qps float64 // n over the window's length
	p50 float64 // their median latency, ms
}

// cutWindows cuts the stretch of load that began at start into k windows
// of equal length and files every read under the window it completed in.
// A failed read contributes to no figure; neither does a read that was
// still in flight when the last window closed.
func cutWindows(reads []readResult, start time.Time, length time.Duration, k int) []windowStats {
	lat := make([][]float64, k)
	for _, rd := range reads {
		w := int(rd.start.Add(rd.latency).Sub(start) / length)
		if rd.ok && w >= 0 && w < k {
			lat[w] = append(lat[w], ms(rd.latency))
		}
	}
	out := make([]windowStats, k)
	for w, l := range lat {
		out[w] = windowStats{n: len(l), qps: float64(len(l)) / length.Seconds(), p50: percentile(l, 0.50)}
	}
	return out
}

// medianWindow reports each figure as the median of the windows' figures,
// so that one stall (a scheduler hiccup, one slow neighbour burst) cannot
// move it, with the median window's sample count.
func medianWindow(ws []windowStats) windowStats {
	n, qps, p50 := make([]float64, len(ws)), make([]float64, len(ws)), make([]float64, len(ws))
	for i, w := range ws {
		n[i], qps[i], p50[i] = float64(w.n), w.qps, w.p50
	}
	return windowStats{n: int(median(n)), qps: median(qps), p50: median(p50)}
}
