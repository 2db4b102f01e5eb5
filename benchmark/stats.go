//go:build linux

package main

import (
	"fmt"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks, so quantile(s, 0.5) is the usual
// median (mean of the two middle values for even n). Empty input is 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func medianMS(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = ms(d)
	}
	return median(vals)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentileLadder lists the tail percentiles the harness may report,
// lowest first.
var percentileLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// highPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it — the tail a sample of n can support. With
// fewer than 20 samples even the median has under ten beyond it, so the
// median is all that is reported.
func highPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		// n·(100−p)/100 ≥ 10, with slack for 100−99.9 not being exact.
		if float64(n)*(100-p) >= 1000-1e-6 {
			best = p
		}
	}
	return best
}

// highTail returns the chosen percentile and its value over vals.
func highTail(vals []float64) (p, v float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	p = highPercentile(len(s))
	return p, quantile(s, p/100)
}

// span is one timed call into a layer, recorded by the traced replay.
// Times are offsets from the recorder's origin; parent is the index of
// the enclosing span (-1 for an op's root); op identifies the request
// all spans of one replayed op share.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	op         int
}

// recorder keeps spans in memory until the replay ends. The replays are
// single-goroutine, so begin/end need no lock.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent, op int) int {
	r.spans = append(r.spans, span{name: name, start: time.Since(r.t0), parent: parent, op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id]
	s.end = time.Since(r.t0)
	return s.end - s.start
}

// selfTimes returns each span's duration minus the part of its interval
// its direct children cover. Children may overlap one another (and may
// poke outside the parent); the covered part is the union of their
// intervals clipped to the parent, so overlap is never subtracted twice.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		self := s.end - s.start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered := s.start
		for _, k := range ks {
			lo, hi := max(spans[k].start, covered), min(spans[k].end, s.end)
			if hi > lo {
				self -= hi - lo
				covered = hi
			}
		}
		out[i] = self
	}
	return out
}

// selfByName groups span self times by span name.
func selfByName(spans []span) map[string][]time.Duration {
	self := selfTimes(spans)
	out := make(map[string][]time.Duration)
	for i, s := range spans {
		out[s.name] = append(out[s.name], self[i])
	}
	return out
}

// metric is one reported number. Samples is the count behind a median
// or percentile (0 for totals and ratios).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

func (m metric) String() string {
	s := fmt.Sprintf("%.6g %s", m.Value, m.Unit)
	if m.Samples > 0 {
		s += fmt.Sprintf(" (n=%d)", m.Samples)
	}
	if m.Note != "" {
		s += " [" + m.Note + "]"
	}
	return s
}
