package main

import (
	"math"
	"sort"
	"time"
)

// failedLatency stands in for the latency of a failed statement: a
// statement that fails counts as missing every latency limit, so it
// sorts after every completed one.
const failedLatency = time.Duration(math.MaxInt64)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// the samples: the smallest value with at least p% of the samples at
// or below it. It sorts a copy and returns 0 for no samples.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// beyond reports how many samples lie strictly above the p-th
// percentile's rank — a percentile is only reported when at least ten
// samples lie beyond it.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// median returns the middle value of xs (the mean of the middle two
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for none.
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

// allocKBPerOp is the process-wide heap allocation per statement, in
// KiB, between two runtime.MemStats.TotalAlloc readings.
func allocKBPerOp(before, after uint64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(after-before) / 1024 / float64(ops)
}

// perKop scales a count to a rate per thousand statements.
func perKop(count float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return count * 1000 / float64(ops)
}

// overheadPct is the median over pairs of the traced time's excess over
// the untraced time of the same statement, in percent of the untraced
// time. traced[i] and untraced[i] must time the same statement.
func overheadPct(traced, untraced []float64) float64 {
	rel := make([]float64, len(traced))
	for i := range traced {
		rel[i] = 100 * (traced[i] - untraced[i]) / untraced[i]
	}
	return median(rel)
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its direct children (overlapping children
// are counted once, and a child's part outside its parent is ignored).
// The result is indexed like spans.
func selfTimes(spans []Span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		var ivs [][2]time.Duration
		for _, c := range children[s.ID] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		out[i] = s.End - s.Start - covered(ivs)
	}
	return out
}

// covered returns the total length of the union of the intervals.
func covered(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			if iv[1] > curHi {
				curHi = iv[1]
			}
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
