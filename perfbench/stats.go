package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// tailLadder lists the percentiles a timing may be reported at, in units of
// 1/10000 (9900 is p99). The tail reported is the highest rung that leaves
// at least minBeyond samples above it, so a tail figure always rests on
// more than a handful of outliers.
var tailLadder = []int{5000, 9000, 9900, 9990}

// minBeyond is the number of samples that must lie above a reported
// percentile.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile q (in units
// of 1/10000) among n samples: the smallest rank whose share of samples at
// or below it is at least q.
func rank(q, n int) int {
	r := (q*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// supported reports whether percentile q (units of 1/10000) leaves at least
// minBeyond of n samples above it.
func supported(q, n int) bool {
	return n > 0 && n-rank(q, n) >= minBeyond
}

// tailRung returns the highest percentile on tailLadder that n samples
// support, or 0 when even the median is unsupported.
func tailRung(n int) int {
	best := 0
	for _, q := range tailLadder {
		if supported(q, n) {
			best = q
		}
	}
	return best
}

// samples is a set of durations.
type samples []time.Duration

// percentile returns the nearest-rank percentile q (units of 1/10000) of the
// samples, or 0 for an empty set. It sorts s in place.
func (s samples) percentile(q int) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(q, len(s))-1]
}

// timing summarises a set of durations by the percentile rule: the median
// and the highest supported tail percentile, with the count they rest on.
type timing struct {
	Count  int     `json:"count"`
	P50ms  float64 `json:"p50_ms"`
	Tail   string  `json:"tail"` // "p99", "p99.9", ...; "" when unsupported
	TailMs float64 `json:"tail_ms"`
}

func summarize(s samples) timing {
	t := timing{Count: len(s)}
	if len(s) == 0 {
		return t
	}
	t.P50ms = ms(s.percentile(5000))
	if q := tailRung(len(s)); q > 0 {
		t.Tail = rungName(q)
		t.TailMs = ms(s.percentile(q))
	}
	return t
}

// rungName renders a percentile in units of 1/10000 as "p50", "p99.9".
func rungName(q int) string {
	return "p" + strconv.FormatFloat(float64(q)/100, 'f', -1, 64)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (mean of the middle pair for even
// lengths), or 0 for none. It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartiles of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the rule the benchmark's
// acceptance spreads are computed with. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median, the
// run-to-run noise measure the acceptance rule uses.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// tally counts the operations a workload attempted and the ones whose
// correctness gate failed. Every workload funnels each of its operations
// through exactly one check call, so failed/attempted is the failure ratio.
type tally struct {
	attempted, failed int64
	firstErr          string
}

// check records one operation's outcome; a non-nil err is a failure, and
// the first one is kept for the report.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == "" {
			t.firstErr = err.Error()
		}
	}
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// failedRatio is failed over attempted; a run that attempted nothing counts
// as wholly failed, since it proved nothing.
func (t tally) failedRatio() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed) / float64(t.attempted)
}
