package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail value:
// the tail is the highest percentile the sample supports with at least
// this many observations beyond it.
const tailBeyond = 10

// dist summarises one timing sample set in milliseconds.
type dist struct {
	N    int     // sample count
	P50  float64 // median
	Tail float64 // value with exactly tailBeyond samples above it
	// TailPct is the percentile Tail sits at, 100·(N−tailBeyond)/N; 0
	// when the sample is too small to have a tail.
	TailPct float64
}

// summarise sorts xs in place and returns its median and tail.
func summarise(xs []float64) dist {
	sort.Float64s(xs)
	d := dist{N: len(xs)}
	if d.N == 0 {
		return d
	}
	d.P50 = median(xs)
	if d.N > 2*tailBeyond {
		d.Tail = xs[d.N-tailBeyond-1]
		d.TailPct = 100 * float64(d.N-tailBeyond) / float64(d.N)
	} else {
		// Too few samples for a tail with ten beyond it: the maximum is
		// the only honest upper statistic.
		d.Tail = xs[d.N-1]
		d.TailPct = 100
	}
	return d
}

// median of an already sorted slice (mean of the middle pair when even).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return median(c)
}

// percentile returns the nearest-rank p-th percentile of xs (sorted in
// place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sloLimits are the latency limits a request must meet, at the tail, for
// its rate rung to count as sustained.
type sloLimits struct {
	TTFT, TPOT time.Duration
}

// rungOutcome is what the SLO rule needs to know about one request sent
// on a rung: whether it completed, its TTFT, and its TPOT (mean gap
// between its output tokens).
type rungOutcome struct {
	OK         bool // completed; shed or failed is false
	TTFT, TPOT time.Duration
}

// sloShare is the share of requests that must meet both limits.
const sloShare = 0.99

// meetsSLO reports whether a rung is sustained: at least sloShare of
// the requests due on it completed within both limits (a shed, failed
// or abandoned request misses), and the generator's backlog did not
// grow — at most backlogSlack requests were still waiting for a
// connection when the last one fell due.
func meetsSLO(outs []rungOutcome, abandoned, backlogAtEnd, backlogSlack int, lim sloLimits) bool {
	total := len(outs) + abandoned
	if total == 0 || backlogAtEnd > backlogSlack {
		return false
	}
	met := 0
	for _, o := range outs {
		if o.OK && o.TTFT <= lim.TTFT && o.TPOT <= lim.TPOT {
			met++
		}
	}
	return float64(met) >= sloShare*float64(total)
}

// highestSustained is the index of the highest rung that met the SLO,
// or -1 when none did. Rungs are listed in increasing rate order.
func highestSustained(sustained []bool) int {
	top := -1
	for k, ok := range sustained {
		if ok {
			top = k
		}
	}
	return top
}
