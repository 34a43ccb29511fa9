package main

import (
	"math"
	"sort"
	"time"
)

// now reads the wall clock. It is the benchmark's only clock: every latency,
// throughput and set-up figure is a difference of two readings.
//
//detlint:ignore R2 benchmark timing; durations are reported as measurements and never feed scored output
func now() time.Time { return time.Now() }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// samples holds raw per-operation measurements. Percentiles are taken from
// the raw values, never from histogram buckets, so a 10% shift is visible.
// A failed operation is recorded as +Inf: it misses every latency limit.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }
func (s *samples) fail()         { *s = append(*s, math.Inf(1)) }

// quantile returns the nearest-rank q-quantile (q in (0,1]) and the number
// of samples it was taken from. An empty set yields (NaN, 0).
func (s samples) quantile(q float64) (float64, int) {
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank], n
}

// median is the 0.5 quantile with the midpoint rule for even counts, used
// for per-repetition figures (throughput, set-up time) where the count is
// small.
func (s samples) median() (float64, int) {
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2], n
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2, n
}

// mean returns the arithmetic mean in index order.
func (s samples) mean() (float64, int) {
	if len(s) == 0 {
		return math.NaN(), 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s)), len(s)
}

// max returns the largest sample.
func (s samples) max() (float64, int) {
	if len(s) == 0 {
		return math.NaN(), 0
	}
	m := s[0]
	for _, v := range s[1:] {
		if v > m {
			m = v
		}
	}
	return m, len(s)
}

// schedule is an open-loop send plan: operation i is due at start+i*every.
// Latency is charged from the due time, so a stall delays and charges
// every later operation, and lateness records how far behind plan each
// send actually left.
type schedule struct {
	start time.Time
	every time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.every) }

// openLoop runs n operations on sched: operation i leaves at its due
// time, or as soon as operation i-1 returns if that is later. Its latency
// counts from the due time and its lateness from due time to departure,
// both in ms; a failed operation's latency is +Inf. It returns the number
// of failed operations.
func openLoop(sched schedule, n int, op func(i int) error, lat, late *samples) int {
	failed := 0
	for i := 0; i < n; i++ {
		due, l := sched.wait(i)
		late.add(ms(l))
		if err := op(i); err != nil {
			lat.fail()
			failed++
			continue
		}
		lat.add(ms(now().Sub(due)))
	}
	return failed
}

// wait sleeps until operation i is due and returns its due time and how
// late the send is leaving (0 when on time).
func (s schedule) wait(i int) (due time.Time, late time.Duration) {
	due = s.due(i)
	if d := due.Sub(now()); d > 0 {
		time.Sleep(d)
	}
	late = now().Sub(due)
	if late < 0 {
		late = 0
	}
	return due, late
}
