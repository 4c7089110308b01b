package main

import (
	"math"
	"sort"
)

// metric is one reported number. Samples is how many observations a
// statistic was taken over, and Above, for a percentile, how many of
// them lie beyond it.
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int
	Above   int
}

// metrics is an ordered, name-indexed list of one run's metrics.
type metrics struct {
	list []metric
	idx  map[string]int
}

func (m *metrics) add(name, unit string, v float64, samples int) {
	if m.idx == nil {
		m.idx = map[string]int{}
	}
	m.idx[name] = len(m.list)
	m.list = append(m.list, metric{Name: name, Unit: unit, Value: v, Samples: samples})
}

func (m *metrics) get(name string) (metric, bool) {
	i, ok := m.idx[name]
	if !ok {
		return metric{}, false
	}
	return m.list[i], true
}

// dist adds the median of xs under name and returns it; an empty sample
// adds nothing.
func (m *metrics) dist(name, unit string, xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := quantile(xs, 0.5)
	m.add(name, unit, v, len(xs))
	return v
}

// latency adds prefix_p50_ms and prefix_p95_ms over xs.
func (m *metrics) latency(prefix string, xs []float64) {
	m.dist(prefix+"_p50_ms", "ms", xs)
	m.p95(prefix+"_p95_ms", xs)
}

// p95 adds the 95th percentile of latencies xs, noting how many lie
// beyond it.
func (m *metrics) p95(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	m.add(name, "ms", quantile(xs, 0.95), len(xs))
	m.list[len(m.list)-1].Above = len(xs) - rank(len(xs), 0.95)
}

// routeP50 is the typical wait per step of a mix of routes: each
// route's median latency, weighted by its share of the requests. A
// median pooled over routes would sit on the boundary between fast and
// slow routes whenever they split the traffic evenly, and jump between
// them from run to run.
func routeP50(samples []sample) float64 {
	byRoute := map[string][]float64{}
	for _, s := range samples {
		byRoute[s.route] = append(byRoute[s.route], s.ms)
	}
	sum := 0.0
	for _, xs := range byRoute {
		sum += float64(len(xs)) * quantile(xs, 0.5)
	}
	return sum / float64(len(samples))
}

// rank is the 1-based nearest-rank position of quantile q among n.
func rank(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n))))
}

// quantile is the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	return xs[rank(len(xs), q)-1]
}
