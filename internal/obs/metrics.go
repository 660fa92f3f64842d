package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. All methods are
// lock-free and safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any int64; counters are conventionally monotonic
// but the type does not enforce it).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can be set or accumulated. Safe for
// concurrent use (CAS on the bit pattern).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add accumulates d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets: bucket i counts values
// v ≤ Bounds[i]; one implicit overflow bucket counts the rest. Bounds are
// fixed at creation (no re-bucketing), so Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last = overflow
	total  atomic.Int64
	sum    Gauge
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for ; i < len(h.bounds); i++ {
		if v <= h.bounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is an immutable copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra overflow
	// slot.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket that holds the q·Count-th observation — the same
// estimator Prometheus' histogram_quantile uses. The first bucket
// interpolates from 0 (observations are durations/sizes here); a quantile
// landing in the overflow bucket is clamped to the highest bound. Returns
// 0 on an empty histogram.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := 0.0
	for i, n := range h.Counts {
		prev := cum
		cum += float64(n)
		if cum < rank || n == 0 {
			continue
		}
		if i >= len(h.Bounds) {
			// Overflow bucket: no upper bound to interpolate toward.
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(n)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Registry holds named metrics. Get-or-create lookups take a mutex; the
// returned metric handles are lock-free, so hot paths should cache them.
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
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (which must be ascending) on first use. An existing
// histogram is returned as-is — its original bounds win.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.total.Load(),
		Sum:    h.sum.Value(),
	}
	for i := range h.counts {
		hs.Counts[i] = h.counts[i].Load()
	}
	return hs
}

// WriteText renders the snapshot as sorted "name value" lines — a minimal
// exposition format for logs and CLI output.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, n := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "%s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	for _, n := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "%s %g\n", n, s.Gauges[n]); err != nil {
			return err
		}
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "%s count=%d sum=%g p50=%g p90=%g p99=%g buckets=%v le=%v\n",
			n, h.Count, h.Sum, h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Counts, h.Bounds); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
