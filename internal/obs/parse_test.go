package obs_test

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

// These tests hold obstest's strict parser against the exposition
// Registry.WriteTo emits, so they live beside the writer.

// TestParseRoundTrip writes a populated registry and re-parses it: the
// strict parser must accept everything WriteTo emits and recover the
// same values, labels, and help text.
func TestParseRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	r.NewCounterVec("rt_requests_total", `help with \ and "quotes"`+"\nand newline", "semiring").
		With("min-plus").Add(42)
	r.NewGauge("rt_depth", "queue depth").Set(-3)
	h := r.NewHistogram("rt_lat_ns", "latency", []int64{100, 1000})
	h.Observe(50)
	h.Observe(5000)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	s, err := obstest.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("round trip rejected: %v\n%s", err, b.String())
	}
	if got := s.Families["rt_requests_total"].Help; got != `help with \ and "quotes"`+"\nand newline" {
		t.Fatalf("help round trip: %q", got)
	}
	if v, ok := s.Value("rt_requests_total", map[string]string{"semiring": "min-plus"}); !ok || v != 42 {
		t.Fatalf("counter value = %v %v", v, ok)
	}
	if v, ok := s.Value("rt_depth", nil); !ok || v != -3 {
		t.Fatalf("gauge value = %v %v", v, ok)
	}
	if v, ok := s.Value("rt_lat_ns_count", nil); !ok || v != 2 {
		t.Fatalf("hist count = %v %v", v, ok)
	}
	les, cum, ok := s.HistBuckets("rt_lat_ns", nil)
	if !ok || len(les) != 2 || len(cum) != 3 {
		t.Fatalf("HistBuckets = %v %v %v", les, cum, ok)
	}
	if cum[0] != 1 || cum[1] != 1 || cum[2] != 2 {
		t.Fatalf("cumulative counts = %v", cum)
	}
}

// TestParseStrictness feeds the parser documents that a sloppy parser
// would accept; all must be rejected.
func TestParseStrictness(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"sample before TYPE", "# HELP m h\nm 1\n"},
		{"no HELP", "# TYPE m counter\nm 1\n"},
		{"bare sample", "m 1\n"},
		{"duplicate HELP", "# HELP m h\n# TYPE m counter\nm 1\n# HELP m h\n"},
		{"duplicate TYPE", "# HELP m h\n# TYPE m counter\n# TYPE m counter\n"},
		{"unknown type", "# HELP m h\n# TYPE m summary\nm 1\n"},
		{"unknown comment", "# EOF\n"},
		{"blank line", "# HELP m h\n# TYPE m counter\n\nm 1\n"},
		{"duplicate series", "# HELP m h\n# TYPE m counter\nm 1\nm 2\n"},
		{"foreign sample", "# HELP m h\n# TYPE m counter\nother 1\n"},
		{"duplicate label", "# HELP m h\n# TYPE m counter\nm{a=\"1\",a=\"2\"} 1\n"},
		{"unterminated label", "# HELP m h\n# TYPE m counter\nm{a=\"1\" 1\n"},
		{"bad escape", "# HELP m h\n# TYPE m counter\nm{a=\"\\t\"} 1\n"},
		{"bad value", "# HELP m h\n# TYPE m counter\nm one\n"},
		{"help no type", "# HELP m h\n"},
		{"hist missing inf", "# HELP m h\n# TYPE m histogram\nm_bucket{le=\"1\"} 1\nm_sum 1\nm_count 1\n"},
		{"hist missing sum", "# HELP m h\n# TYPE m histogram\nm_bucket{le=\"+Inf\"} 1\nm_count 1\n"},
		{"hist inf vs count", "# HELP m h\n# TYPE m histogram\nm_bucket{le=\"+Inf\"} 2\nm_sum 1\nm_count 1\n"},
		{"hist decreasing", "# HELP m h\n# TYPE m histogram\nm_bucket{le=\"1\"} 5\nm_bucket{le=\"2\"} 3\nm_bucket{le=\"+Inf\"} 5\nm_sum 1\nm_count 5\n"},
		{"hist bucket no le", "# HELP m h\n# TYPE m histogram\nm_bucket 1\nm_bucket{le=\"+Inf\"} 1\nm_sum 1\nm_count 1\n"},
		{"interleaved families", "# HELP a h\n# TYPE a counter\n# HELP b h\n# TYPE b counter\na 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := obstest.ParseText(strings.NewReader(tc.doc)); err == nil {
				t.Fatalf("accepted malformed document:\n%s", tc.doc)
			}
		})
	}
}

func TestParseAcceptsHistogramWithLabels(t *testing.T) {
	doc := "# HELP m h\n# TYPE m histogram\n" +
		"m_bucket{s=\"a\",le=\"1\"} 1\nm_bucket{s=\"a\",le=\"+Inf\"} 2\nm_sum{s=\"a\"} 3\nm_count{s=\"a\"} 2\n" +
		"m_bucket{s=\"b\",le=\"1\"} 0\nm_bucket{s=\"b\",le=\"+Inf\"} 1\nm_sum{s=\"b\"} 9\nm_count{s=\"b\"} 1\n"
	s, err := obstest.ParseText(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Value("m_count", map[string]string{"s": "b"}); !ok || v != 1 {
		t.Fatalf("labelled hist count = %v %v", v, ok)
	}
	les, cum, ok := s.HistBuckets("m", map[string]string{"s": "a"})
	if !ok || len(les) != 1 || cum[1] != 2 {
		t.Fatalf("labelled HistBuckets = %v %v %v", les, cum, ok)
	}
}

// TestRuntimeCollector refreshes the runtime gauges and reads them back
// through the exposition: they must round-trip and carry live values.
func TestRuntimeCollector(t *testing.T) {
	r := obs.NewRegistry()
	obs.NewRuntimeCollector(r).Collect()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := obstest.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("runtime gauges don't round-trip: %v", err)
	}
	if v, ok := sc.Value("faq_go_goroutines", nil); !ok || v < 1 {
		t.Fatalf("goroutines gauge = %v %v, want >= 1", v, ok)
	}
	if v, ok := sc.Value("faq_go_heap_objects_bytes", nil); !ok || v <= 0 {
		t.Fatalf("heap bytes gauge = %v %v, want > 0", v, ok)
	}
}
