package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets is the default latency histogram layout, in seconds: wide enough
// to cover both a sub-100us in-memory commit and a multi-second compaction.
var DefBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets is the default layout for count-valued histograms (batch sizes,
// bytes): powers of four from 1 to ~16M.
var SizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216}

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready to use;
// all methods are safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (which may be negative) to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (cumulative at exposition,
// per-bucket internally) and tracks their sum. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches everything above the last
// bound. All methods are safe for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits, accumulated by CAS
	count  atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound >= v, i.e. the tightest le bucket; +Inf when none.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start — the usual way to time
// a code path against a latency histogram.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values so far.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// labelKey joins label values into a map key. \xff cannot appear in valid
// UTF-8 label values, so the join is unambiguous.
func labelKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, '\xff')
		}
		b = append(b, v...)
	}
	return string(b)
}

// vec is the shared child table behind every counter, gauge and histogram
// family; an unlabeled one has a single child.
type vec[T any] struct {
	labels []string
	make   func() *T

	mu       sync.RWMutex
	children map[string]*T
	values   map[string][]string // key -> label values, for exposition
}

// newVec returns an empty child table; one with no labels gets its only child
// at once, so an unlabeled metric is exposed (at zero) before its first use.
func newVec[T any](labels []string, mk func() *T) *vec[T] {
	v := &vec[T]{labels: labels, make: mk, children: map[string]*T{}, values: map[string][]string{}}
	if len(labels) == 0 {
		v.with(nil)
	}
	return v
}

func (v *vec[T]) with(values []string) *T {
	if len(values) != len(v.labels) {
		panic("obs: wrong number of label values")
	}
	k := labelKey(values)
	v.mu.RLock()
	c := v.children[k]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.children[k]; c != nil {
		return c
	}
	c = v.make()
	v.children[k] = c
	v.values[k] = append([]string(nil), values...)
	return c
}

// snapshot returns the children in deterministic (sorted-key) order.
func (v *vec[T]) snapshot() (keys []string, values [][]string, children []*T) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys = make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		values = append(values, v.values[k])
		children = append(children, v.children[k])
	}
	return keys, values, children
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ *vec[Counter] }

// With returns (creating on first use) the child counter for the given label
// values, which must match the label names in number and order.
func (v CounterVec) With(values ...string) *Counter { return v.with(values) }

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ *vec[Gauge] }

// With returns (creating on first use) the child gauge for the given label values.
func (v GaugeVec) With(values ...string) *Gauge { return v.with(values) }

// HistogramVec is a histogram family partitioned by label values; every child
// shares the family's bucket layout.
type HistogramVec struct {
	*vec[Histogram]
}

// With returns (creating on first use) the child histogram for the given label values.
func (v HistogramVec) With(values ...string) *Histogram { return v.with(values) }
