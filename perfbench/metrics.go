package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported tail percentile must leave
// above it; with fewer, the tail value rests on too few observations to
// repeat from run to run.
const minBeyond = 10

// samples is an unordered set of observations of one quantity.
type samples []float64

func (s *samples) addDur(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())) }

// sorted returns a sorted copy.
func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// rank returns the nearest-rank index (1-based) of the q-th percentile,
// q in (0, 100], over n samples: the smallest rank whose share of samples
// at or below it is at least q percent.
func rank(n, q int) int {
	return (q*n + 99) / 100
}

// pct returns the q-th percentile (0 for no samples).
func (s samples) pct(q int) float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	return v[rank(len(v), q)-1]
}

// median returns the 50th percentile (0 for no samples).
func (s samples) median() float64 { return s.pct(50) }

// tail returns the 99th percentile and the percentile actually reported.
// When fewer than minBeyond samples would lie above p99, it reports the
// highest percentile that still leaves minBeyond samples beyond it, so the
// tail figure never rests on fewer observations. ok is false when there are
// not enough samples for any such percentile.
func (s samples) tail() (value, pct float64, ok bool) {
	n := len(s)
	if n <= minBeyond {
		return 0, 0, false
	}
	v := s.sorted()
	r := rank(n, 99)
	if n-r < minBeyond {
		r = n - minBeyond
	}
	return v[r-1], 100 * float64(r) / float64(n), true
}

// max returns the largest sample (0 for none).
func (s samples) max() float64 {
	m := 0.0
	for _, x := range s {
		m = math.Max(m, x)
	}
	return m
}

// sum returns the total of the samples.
func (s samples) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

// throughput counts work done in equal time slices of a measured window,
// so that the reported rate is the median slice's: a slice hit by a pause
// or a noisy neighbour moves the median far less than the mean. A slice's
// rate is its work over the time from the previous slice's last
// completion to its own last one.
type throughput struct {
	start time.Time
	slice time.Duration
	work  []float64
	last  []time.Time
}

const throughputSlices = 10

func newThroughput(start time.Time, window time.Duration) *throughput {
	return &throughput{start: start, slice: window / throughputSlices,
		work: make([]float64, throughputSlices), last: make([]time.Time, throughputSlices)}
}

// add counts n units of work completed at t; work completed after the
// window is not counted.
func (tp *throughput) add(t time.Time, n int) {
	if i := int(t.Sub(tp.start) / tp.slice); i >= 0 && i < len(tp.work) {
		tp.work[i] += float64(n)
		tp.last[i] = t
	}
}

// rate returns the median slice's work per second.
func (tp *throughput) rate() float64 {
	var rates samples
	prev := tp.start
	for i, w := range tp.work {
		if w == 0 {
			continue
		}
		rates = append(rates, w/tp.last[i].Sub(prev).Seconds())
		prev = tp.last[i]
	}
	return rates.median()
}

// metric is one reported figure: its value, unit, and how many samples it
// summarizes (1 for a single measurement). Pct names the percentile a tail
// latency actually reports (see samples.tail); 0 elsewhere.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Pct     float64 `json:"pct,omitempty"`
}

// metrics maps metric names to their figures.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, Samples: n}
}

// setPcts records the median, 90th percentile and tail of a latency
// distribution under <base>_p50_<unit>, <base>_p90_<unit> and
// <base>_p99_<unit>, scaling nanoseconds by div. It reports whether the
// samples sufficed for a tail percentile.
func (m metrics) setPcts(base string, s samples, unit string, div float64) bool {
	m.set(base+"_p50_"+unit, s.median()/div, unit, len(s))
	m.set(base+"_p90_"+unit, s.pct(90)/div, unit, len(s))
	v, pct, ok := s.tail()
	m[base+"_p99_"+unit] = metric{Value: v / div, Unit: unit, Samples: len(s), Pct: pct}
	return ok
}
