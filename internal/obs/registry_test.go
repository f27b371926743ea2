package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact exposition output: family name
// ordering, label-value ordering within a family, histogram
// bucket/_sum/_count shape, and HELP/label escaping.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("zz_last_total", "sorted last by name")
	c.Add(3)
	v := r.NewCounterVec("aa_requests_total", "requests with a\nnewline and back\\slash", "semiring", "op")
	v.With("count", "solve").Add(7)
	v.With("bool", "batch").Inc()
	v.With("bool", `quo"te`).Inc()
	g := r.NewGauge("mid_gauge", "a gauge")
	g.Set(-4)
	h := r.NewHistogram("lat_ns", "latency", []int64{10, 100})
	h.Observe(5)   // bucket le=10
	h.Observe(50)  // bucket le=100
	h.Observe(500) // +Inf
	h.Observe(7)   // bucket le=10

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_requests_total requests with a\nnewline and back\\slash
# TYPE aa_requests_total counter
aa_requests_total{semiring="bool",op="batch"} 1
aa_requests_total{semiring="bool",op="quo\"te"} 1
aa_requests_total{semiring="count",op="solve"} 7
# HELP lat_ns latency
# TYPE lat_ns histogram
lat_ns_bucket{le="10"} 2
lat_ns_bucket{le="100"} 3
lat_ns_bucket{le="+Inf"} 4
lat_ns_sum 562
lat_ns_count 4
# HELP mid_gauge a gauge
# TYPE mid_gauge gauge
mid_gauge -4
# HELP zz_last_total sorted last by name
# TYPE zz_last_total counter
zz_last_total 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("c_total", "help")
	b := r.NewCounter("c_total", "help")
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 2 {
		t.Fatalf("re-registration must return the same cell: %d %d", a.Value(), b.Value())
	}
	v1 := r.NewCounterVec("v_total", "help", "k")
	v2 := r.NewCounterVec("v_total", "help", "k")
	v1.With("x").Add(5)
	if got := v2.With("x").Value(); got != 5 {
		t.Fatalf("With must be idempotent per label set, got %d", got)
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"kind", func(r *Registry) { r.NewCounter("m", "h"); r.NewGauge("m", "h") }},
		{"help", func(r *Registry) { r.NewCounter("m", "h"); r.NewCounter("m", "other") }},
		{"labels", func(r *Registry) { r.NewCounterVec("m", "h", "a"); r.NewCounterVec("m", "h", "b") }},
		{"buckets", func(r *Registry) {
			r.NewHistogram("m", "h", []int64{1, 2})
			r.NewHistogram("m", "h", []int64{1, 3})
		}},
		{"empty help", func(r *Registry) { r.NewCounter("m", "") }},
		{"bad name", func(r *Registry) { r.NewCounter("0bad", "h") }},
		{"bad label", func(r *Registry) { r.NewCounterVec("m", "h", "le") }},
		{"unsorted buckets", func(r *Registry) { r.NewHistogram("m", "h", []int64{2, 1}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

// TestHistogramConcurrent hammers one histogram from 8 goroutines; run
// under -race this pins the lock-free sample path, and the final counts
// must balance exactly.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("hammer_ns", "hammered", []int64{8, 64, 512})
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64((g*perG + i) % 1024))
			}
		}(g)
	}
	wg.Wait()
	var count int64
	for i := range h.h.counts {
		count += h.h.counts[i].Load()
	}
	if count != goroutines*perG {
		t.Fatalf("bucket counts sum to %d, want %d", count, goroutines*perG)
	}
}

// TestSampleAllocs pins the zero-allocation contract for every sample
// primitive the exec/kernel hot paths use.
func TestSampleAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "h")
	g := r.NewGauge("g", "h")
	h := r.NewHistogram("h_ns", "h", DurationBucketsNS)
	bound := r.NewCounterVec("v_total", "h", "k").With("x")
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(2) }},
		{"Counter.Inc", func() { c.Inc() }},
		{"Gauge.Set", func() { g.Set(9) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(123456) }},
		{"bound child Add", func() { bound.Add(1) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogram("bench_ns", "h", DurationBucketsNS)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
