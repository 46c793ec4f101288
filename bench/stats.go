package main

import (
	"fmt"
	"sort"
	"time"
)

// samples is a set of per-operation measurements of one quantity.
type samples []float64

func (s *samples) add(v float64)         { *s = append(*s, v) }
func (s *samples) addMs(d time.Duration) { s.add(ms(d)) }
func ms(d time.Duration) float64         { return float64(d.Nanoseconds()) / 1e6 }

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

func (s samples) median() float64 { return quantile(s.sorted(), 0.5) }

// quantile interpolates linearly in an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything (choosing-metrics §1).
const tailMinBeyond = 10

// tail returns the highest percentile that still has tailMinBeyond
// samples beyond it, and its value. ok is false when that percentile
// would not be above the median.
func (s samples) tail() (pct, value float64, ok bool) {
	n := len(s)
	if n < 2*tailMinBeyond+1 {
		return 0, 0, false
	}
	c := s.sorted()
	idx := n - tailMinBeyond - 1
	return 100 * float64(idx+1) / float64(n), c[idx], true
}

// metric is one named, unit-carrying number of a run. Timings carry
// the median as Value with the tail percentile beside it; counts and
// ratios leave the tail empty.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	N       int     `json:"samples"`
}

// timing builds a metric from per-operation samples: median, tail, n.
func timing(name, unit string, s samples) metric {
	m := metric{Name: name, Unit: unit, Value: s.median(), N: len(s)}
	if pct, v, ok := s.tail(); ok {
		m.TailPct, m.Tail = pct, v
	}
	return m
}

// scalar builds a metric from one computed number.
func scalar(name, unit string, v float64, n int) metric {
	return metric{Name: name, Unit: unit, Value: v, N: n}
}

func (m metric) String() string {
	s := fmt.Sprintf("%-34s %14.4f %-8s n=%d", m.Name, m.Value, m.Unit, m.N)
	if m.TailPct > 0 {
		s += fmt.Sprintf("  p%.4g=%.4f", m.TailPct, m.Tail)
	}
	return s
}
