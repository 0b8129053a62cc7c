package obs

import (
	"math"
	"sort"
	"sync"
)

// Registry holds named typed metrics. Names are namespaced by
// convention ("cover.gain", "tsp.twoopt_moves"). Metrics are
// get-or-create; reads and writes are goroutine-safe; every method is
// a no-op on a nil registry so disabled tracing costs nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		//mdglint:allow-alloc(one allocation per distinct counter name, reused for every later update)
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		//mdglint:allow-alloc(one allocation per distinct gauge name, reused for every later update)
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the given ascending bucket upper bounds (nil selects DefaultBuckets).
// Bounds passed on later lookups of an existing histogram are ignored.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		if len(bounds) == 0 {
			bounds = DefaultBuckets()
		}
		//mdglint:allow-alloc(one allocation per distinct histogram name, reused for every later observation)
		h = &Histogram{
			name: name,
			//mdglint:allow-alloc(defensive copy of caller bounds, once per histogram)
			bounds: append([]float64(nil), bounds...),
			//mdglint:allow-alloc(bucket array sized once per histogram)
			counts: make([]int64, len(bounds)+1), // +1 overflow bucket
			min:    math.Inf(1),
			max:    math.Inf(-1),
		}
		r.hists[name] = h
	}
	return h
}

// DefaultBuckets is the doubling ladder used when a histogram is
// created without explicit bounds. It suits the package's dimensionless
// counts (coverage gains, queue depths, improvement moves).
func DefaultBuckets() []float64 {
	//mdglint:allow-alloc(ladder is built once per histogram creation, not per observation)
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// LinearBuckets returns n bounds start, start+width, ... — the shape the
// energy histograms use (n must be >= 1, width > 0; a degenerate request
// yields a single bucket at start).
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 || width <= 0 {
		return []float64{start}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Counter is a monotonically adjusted integer metric.
type Counter struct {
	mu   sync.Mutex
	name string
	v    int64
}

// Add increments the counter by delta (no-op on nil).
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Gauge is a last-value-wins float metric.
type Gauge struct {
	mu   sync.Mutex
	name string
	v    float64
}

// Set records the gauge value (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Histogram buckets observations by ascending upper bounds: an
// observation lands in the first bucket whose bound is >= the value,
// or in the trailing overflow bucket. NaN observations are rejected
// (dropped) so a single undefined sample cannot poison count and sum.
type Histogram struct {
	mu       sync.Mutex
	name     string
	bounds   []float64
	counts   []int64 // len(bounds)+1; last is overflow
	count    int64
	sum      float64
	min, max float64
}

// Observe records one sample (no-op on nil; NaN is dropped).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	h.min = math.Min(h.min, v)
	h.max = math.Max(h.max, v)
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[idx]++
}

// Quantile estimates the p-quantile (0 <= p <= 1) of the observations
// from the bucket counts: linear interpolation inside the bucket that
// holds the target rank, with the observed min and max as the outer
// bucket edges, clamped to [Min, Max]. With no observations (or on a
// nil histogram) it returns NaN. The estimate is exact at p=0 and p=1
// and within one bucket width elsewhere — the usual histogram-quantile
// trade-off.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return bucketQuantile(h.bounds, h.counts, h.count, h.min, h.max, p)
}

// Quantile estimates the p-quantile from the snapshot's buckets, with
// the same contract as Histogram.Quantile.
func (s HistSnap) Quantile(p float64) float64 {
	return bucketQuantile(s.Bounds, s.Counts, s.Count, s.Min, s.Max, p)
}

// bucketQuantile interpolates the p-quantile from bucketed counts.
// counts is parallel to bounds plus a trailing overflow cell; min and
// max bound the outermost buckets.
func bucketQuantile(bounds []float64, counts []int64, count int64, min, max float64, p float64) float64 {
	if count == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return min
	}
	if p >= 1 {
		return max
	}
	rank := p * float64(count)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := float64(cum)
		cum += c
		if float64(cum) < rank {
			continue
		}
		lo := min
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := max
		if i < len(bounds) {
			hi = bounds[i]
		}
		v := lo + (rank-prev)/float64(c)*(hi-lo)
		return math.Max(min, math.Min(max, v))
	}
	return max // counts summed below count would be a corrupt histogram; max is the safe answer
}

// Snapshot is a deterministic point-in-time copy of a registry, every
// section sorted by metric name.
type Snapshot struct {
	Counters []CounterSnap
	Gauges   []GaugeSnap
	Hists    []HistSnap
}

// CounterSnap is one counter's snapshot row.
type CounterSnap struct {
	Name  string
	Value int64
}

// GaugeSnap is one gauge's snapshot row.
type GaugeSnap struct {
	Name  string
	Value float64
}

// HistSnap is one histogram's snapshot row. Bounds and Counts are
// parallel; Counts has one extra trailing overflow cell. Min and Max
// are meaningless (and +/-Inf) when Count is zero.
type HistSnap struct {
	Name     string
	Count    int64
	Sum      float64
	Min, Max float64
	Bounds   []float64
	Counts   []int64
}

// Len returns the total number of metrics in the snapshot.
func (s Snapshot) Len() int { return len(s.Counters) + len(s.Gauges) + len(s.Hists) }

// Snapshot copies the registry's current state, sorted by name so the
// emitted metric events (and any comparison over them) are independent
// of map iteration order. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	//mdglint:ignore determinism values are collected into a slice and sorted by name below; emission order is map-order independent
	for _, c := range r.counters {
		c.mu.Lock()
		snap.Counters = append(snap.Counters, CounterSnap{Name: c.name, Value: c.v})
		c.mu.Unlock()
	}
	//mdglint:ignore determinism values are collected into a slice and sorted by name below; emission order is map-order independent
	for _, g := range r.gauges {
		g.mu.Lock()
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: g.name, Value: g.v})
		g.mu.Unlock()
	}
	//mdglint:ignore determinism values are collected into a slice and sorted by name below; emission order is map-order independent
	for _, h := range r.hists {
		h.mu.Lock()
		snap.Hists = append(snap.Hists, HistSnap{
			Name:   h.name,
			Count:  h.count,
			Sum:    h.sum,
			Min:    h.min,
			Max:    h.max,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
		})
		h.mu.Unlock()
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Hists, func(i, j int) bool { return snap.Hists[i].Name < snap.Hists[j].Name })
	return snap
}
