package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 100; i >= 1; i-- { // unsorted input
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50 * time.Millisecond}, {90, 90 * time.Millisecond}, {1, time.Millisecond}, {100, 100 * time.Millisecond}} {
		got, err := percentile(d, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if d[0] != 100*time.Millisecond {
		t.Errorf("percentile reordered its input")
	}
}

func TestPercentileRefusesTailOfSmallSample(t *testing.T) {
	d := make([]time.Duration, minTailSamples-1)
	for i := range d {
		d[i] = time.Duration(i + 1)
	}
	if _, err := percentile(d, 90); !errors.Is(err, errFewSamples) {
		t.Errorf("p90 of %d samples: err = %v, want errFewSamples", len(d), err)
	}
	if _, err := percentile(d, 50); err != nil {
		t.Errorf("p50 of %d samples: %v", len(d), err)
	}
	if _, err := percentile(append(d, 100), 90); err != nil {
		t.Errorf("p90 of %d samples: %v", len(d)+1, err)
	}
	if _, err := percentile(nil, 50); !errors.Is(err, errFewSamples) {
		t.Errorf("p50 of nothing: err = %v, want errFewSamples", err)
	}
}

// TestQuartilesMatchPython checks against statistics.quantiles(v, n=4),
// the method the spreads of a steadiness run are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9.5, 7.25}, [3]float64{2, 4, 7.25}},
	} {
		q1, q2, q3, err := quartiles(c.v)
		if err != nil || math.Abs(q1-c.want[0]) > 1e-12 || math.Abs(q2-c.want[1]) > 1e-12 || math.Abs(q3-c.want[2]) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, %v; want %v", c.v, q1, q2, q3, err, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); !errors.Is(err, errFewSamples) {
		t.Errorf("quartiles of one value: err = %v, want errFewSamples", err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

// TestLittleWaitSyntheticQueue samples a queue whose every job waits
// exactly 30 ms, with one arrival every 10 ms: Little's law must recover
// the 30 ms wait from the sampled depth and the throughput alone.
func TestLittleWaitSyntheticQueue(t *testing.T) {
	const (
		gap  = 10 * time.Millisecond
		wait = 30 * time.Millisecond
		span = 10 * time.Second
		tick = time.Millisecond // sampling period
	)
	var s depthSampler
	for now := time.Duration(0); now < span; now += tick {
		depth := 0
		for a := time.Duration(0); a <= now; a += gap {
			if now < a+wait {
				depth++
			}
		}
		s.add(depth)
	}
	throughput := float64(time.Second / gap)
	got := littleWait(s.mean(), throughput)
	if d := got - wait; d < -wait/100 || d > wait/100 {
		t.Errorf("Little's-law wait = %v (mean depth %.3f), want %v", got, s.mean(), wait)
	}
	if got := littleWait(3, 0); got != 0 {
		t.Errorf("wait at zero throughput = %v, want 0", got)
	}
	var empty depthSampler
	if empty.mean() != 0 {
		t.Errorf("mean of no samples = %g", empty.mean())
	}
}

func TestLoopOnStopsAtRoundBoundaries(t *testing.T) {
	past := time.Now().Add(-time.Hour)
	for _, c := range []struct {
		k, round, need int
		start          time.Time
		want           bool
	}{
		{0, 7, 0, past, true},        // always attempt one round
		{3, 7, 0, past, true},        // finish the round
		{7, 7, 0, past, false},       // time is up at a boundary
		{7, 7, 10, past, true},       // not enough samples yet
		{14, 7, 10, past, false},     // enough
		{7, 7, 0, time.Now(), true},  // time is not up
		{13, 7, 0, time.Now(), true}, // mid-round
		{100, 100, 50, past, false},  // one whole round of 100
		{50, 100, 50, past, true},    // never half a round
		{200, 100, 150, time.Now(), true},
	} {
		if got := loopOn(c.k, c.round, c.need, c.start, time.Minute); got != c.want {
			t.Errorf("loopOn(k=%d, round=%d, need=%d) = %v, want %v", c.k, c.round, c.need, got, c.want)
		}
	}
}
