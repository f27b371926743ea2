// Package obs is the repository's dependency-free observability layer:
// an atomic metrics registry with Prometheus text exposition, a strict
// exposition parser (the tests' /metrics round trip), a bounded-ring
// solve tracer, and a runtime/metrics collector. The
// offline build has no module cache, so — like internal/lint hand-rolled
// its go/analysis — this package hand-rolls the metric primitives on
// sync/atomic.
//
// Design constraints, in order:
//
//   - The sample hot path is one atomic add with zero allocations.
//     Labelled metrics are pre-bound: Vec.With is called once at
//     construction time and returns a child handle; kernels and exec
//     tasks only ever touch the handle.
//   - Every series is monotone per-counter under concurrent scrape:
//     values are single atomic words, so a scrape observes each counter
//     at some point in its (monotone) history. Cross-counter and
//     bucket/sum consistency is deliberately not promised — that would
//     need a lock on the hot path.
//   - Exposition output is deterministic: families sorted by name,
//     children sorted by label values, so golden tests are stable.
//
// All values are int64. Durations are observed in nanoseconds and the
// metric name carries the unit (`*_ns`); this keeps the hot path free
// of float CAS loops.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families. The zero value is not usable; use
// NewRegistry. Registration is idempotent in the fault.Register style:
// re-registering an identical (name, kind, help, buckets, labels)
// family returns the existing one, so several Service instances can
// share one registry; a mismatched re-registration panics (programmer
// error, caught at init and statically by the metricreg analyzer).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var std = NewRegistry()

// Default is the process-global registry. Package-level instrumentation
// (exec, plan, fault, delta) registers here; per-engine metrics live on
// the engine's own registry and both are written by faqd's /metrics.
func Default() *Registry { return std }

// family is one named metric with a fixed label schema and a set of
// label-value children.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []int64 // histogram upper bounds, strictly increasing; +Inf implicit

	mu       sync.Mutex
	children map[string]*child
}

// child is the value cell for one label combination. Counters and
// gauges use val; histograms use counts (len(buckets)+1, last bucket is
// the +Inf overflow) and sum.
type child struct {
	values []string
	val    atomic.Int64
	counts []atomic.Int64
	sum    atomic.Int64
}

const labelSep = "\x1f"

func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		mustRegister(false, "obs: metric "+f.name+" bound with wrong label count")
	}
	key := ""
	for i, v := range values {
		if i > 0 {
			key += labelSep
		}
		key += v
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{values: append([]string(nil), values...)}
	if f.kind == histogramKind {
		c.counts = make([]atomic.Int64, len(f.buckets)+1)
	}
	f.children[key] = c
	return c
}

// mustRegister is the registry's single panic site: metric registration
// and binding mistakes are programmer errors caught at init (and
// statically by the metricreg analyzer), not runtime conditions.
func mustRegister(ok bool, msg string) {
	if !ok {
		panic(msg)
	}
}

func (r *Registry) register(name, help string, k kind, buckets []int64, labels []string) *family {
	mustRegister(validMetricName(name), "obs: invalid metric name "+name)
	mustRegister(help != "", "obs: metric "+name+" registered with empty help")
	for _, l := range labels {
		mustRegister(validLabelName(l), "obs: metric "+name+" has invalid label name "+l)
	}
	for i := 1; i < len(buckets); i++ {
		mustRegister(buckets[i] > buckets[i-1], "obs: metric "+name+" buckets not strictly increasing")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		mustRegister(f.kind == k && f.help == help &&
			equalStrings(f.labels, labels) && equalInt64s(f.buckets, buckets),
			"obs: metric "+name+" re-registered with a different schema")
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     k,
		labels:   append([]string(nil), labels...),
		buckets:  append([]int64(nil), buckets...),
		children: make(map[string]*child),
	}
	r.fams[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validMetricName reports whether name matches the Prometheus metric
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" || name == "le" { // le is reserved for histogram buckets
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing int64.
type Counter struct{ c *child }

// Add adds delta to the counter. Negative deltas are the caller's bug;
// they are not checked on the hot path.
func (c *Counter) Add(delta int64) { c.c.val.Add(delta) }

// Inc adds one.
func (c *Counter) Inc() { c.c.val.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.c.val.Load() }

// Gauge is an int64 that can go up and down.
type Gauge struct{ g *child }

// Set stores v.
func (g *Gauge) Set(v int64) { g.g.val.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.g.val.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.g.val.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.g.val.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.g.val.Load() }

// Histogram counts observations into fixed buckets. Observe is a
// linear scan over the (small) bucket array plus two atomic adds —
// zero allocations.
type Histogram struct {
	h       *child
	buckets []int64
}

// Observe records v into its bucket and the sum.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.h.counts[i].Add(1)
	h.h.sum.Add(v)
}

// ObserveSince observes the elapsed nanoseconds since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Nanoseconds()) }

// HistSnapshot is a point-in-time copy of a histogram child. Counts are
// per-bucket (non-cumulative); Counts[len(Buckets)] is the +Inf
// overflow bucket.
type HistSnapshot struct {
	Buckets []int64
	Counts  []int64
	Count   int64
	Sum     int64
}

// Snapshot copies the histogram's current state. Each bucket counter is
// monotone; the set of loads is not atomic as a group.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Buckets: h.buckets, Counts: make([]int64, len(h.h.counts))}
	for i := range h.h.counts {
		c := h.h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.h.sum.Load()
	return s
}

// CounterVec is a counter family with labels. With pre-binds a child;
// call it at construction time, never per-sample.
type CounterVec struct{ f *family }

// With returns the child counter for the given label values,
// creating it on first use. Idempotent: same values, same child.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{c: v.f.get(values)} }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{g: v.f.get(values)} }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{h: v.f.get(values), buckets: v.f.buckets}
}

// NewCounter registers (or idempotently returns) an unlabelled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, counterKind, nil, nil)
	return &Counter{c: f.get(nil)}
}

// NewGauge registers an unlabelled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, gaugeKind, nil, nil)
	return &Gauge{g: f.get(nil)}
}

// NewHistogram registers an unlabelled histogram with the given
// strictly increasing upper bounds (+Inf is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []int64) *Histogram {
	f := r.register(name, help, histogramKind, buckets, nil)
	return &Histogram{h: f.get(nil), buckets: f.buckets}
}

// NewCounterVec registers a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, counterKind, nil, labels)}
}

// NewGaugeVec registers a labelled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, gaugeKind, nil, labels)}
}

// NewHistogramVec registers a labelled histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []int64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, histogramKind, buckets, labels)}
}

// DurationBucketsNS is the default latency bucket layout: 10µs to 10s,
// roughly ×2.5 per step, in nanoseconds.
var DurationBucketsNS = []int64{
	10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000,
	100_000_000, 250_000_000, 500_000_000, 1_000_000_000,
	2_500_000_000, 10_000_000_000,
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren snapshots a family's children ordered by label values.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	kids := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		kids = append(kids, c)
	}
	f.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool {
		a, b := kids[i].values, kids[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return kids
}
