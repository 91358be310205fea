package main

import (
	"math"
	"sort"
	"time"
)

// sample is a set of durations or plain values for percentile reports.
type sample []float64

func (s *sample) addDur(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// pct returns the q-quantile (0..1) by linear interpolation between
// closest ranks; NaN when empty.
func (s sample) pct(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append(sample(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s sample) max() float64 {
	m := math.NaN()
	for _, x := range s {
		if math.IsNaN(m) || x > m {
			m = x
		}
	}
	return m
}

func (s sample) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s))
}

func median(xs []float64) float64 { return sample(xs).pct(0.5) }

// interval is a half-open [start, end) range in nanoseconds.
type interval struct{ start, end int64 }

// unionLen is the total length covered by a set of intervals.
func unionLen(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	v := append([]interval(nil), iv...)
	sort.Slice(v, func(i, j int) bool { return v[i].start < v[j].start })
	var total int64
	cur := v[0]
	for _, x := range v[1:] {
		if x.start > cur.end {
			total += cur.end - cur.start
			cur = x
			continue
		}
		if x.end > cur.end {
			cur.end = x.end
		}
	}
	return total + cur.end - cur.start
}
