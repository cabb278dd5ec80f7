package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minTailSamples is the sample count below which a p90 is refused: with
// fewer than 100 samples, fewer than ten lie beyond the 90th percentile,
// and the figure would describe a handful of outliers rather than a tail.
const minTailSamples = 100

// errFewSamples reports a percentile asked of too small a sample.
var errFewSamples = errors.New("too few samples")

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the durations. It refuses a p above 50 from fewer than minTailSamples
// samples, and any percentile of an empty sample.
func percentile(d []time.Duration, p float64) (time.Duration, error) {
	if len(d) == 0 || (p > 50 && len(d) < minTailSamples) {
		return 0, fmt.Errorf("%w: p%g of %d", errFewSamples, p, len(d))
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// quartiles returns the first, second and third quartiles of v by the
// "exclusive" method of Python's statistics.quantiles(v, n=4), so a
// spread computed here matches one computed from the same values there.
// It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64, err error) {
	if len(v) < 2 {
		return 0, 0, 0, fmt.Errorf("%w: quartiles of %d", errFewSamples, len(v))
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	const n = 4
	ld, m := len(s), len(s)+1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], nil
}

// median returns the middle value of v (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// depthSampler accumulates periodic samples of a queue's depth.
type depthSampler struct {
	sum float64
	n   int
}

func (d *depthSampler) add(depth int) {
	d.sum += float64(depth)
	d.n++
}

// mean is the time-averaged depth, given samples taken at a fixed period.
func (d *depthSampler) mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// littleWait applies Little's law, W = L / λ: the mean time a job spends
// in a queue whose mean depth is meanDepth, when jobs pass through it at
// throughput jobs per second. Zero throughput gives zero.
func littleWait(meanDepth, throughput float64) time.Duration {
	if throughput <= 0 {
		return 0
	}
	return time.Duration(meanDepth / throughput * float64(time.Second))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
