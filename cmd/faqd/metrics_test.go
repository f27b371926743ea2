package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/faqs"
	"repro/internal/obs/obstest"
)

// do runs one request through the full handler chain (access log +
// request counter + mux), the same path a live daemon serves.
func do(t *testing.T, h http.Handler, method, path string, payload any) *httptest.ResponseRecorder {
	t.Helper()
	var body *bytes.Reader
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		body = bytes.NewReader(b)
	} else {
		body = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// scrape GETs /metrics and round-trips it through the strict
// exposition parser.
func scrape(t *testing.T, h http.Handler) *obstest.Scrape {
	t.Helper()
	rec := do(t, h, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Content-Type"); got != faqs.MetricsContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", got, faqs.MetricsContentType)
	}
	sc, err := obstest.ParseText(rec.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, rec.Body.String())
	}
	return sc
}

// TestMetricsEndpoint is the tentpole round-trip: drive solves through
// the daemon's full handler chain, then assert /metrics parses under
// the strict exposition parser and the key series moved.
func TestMetricsEndpoint(t *testing.T) {
	h := newServer(faqs.WithPlanCache(16)).handler()

	for i := 0; i < 2; i++ {
		if rec := do(t, h, http.MethodPost, "/solve", testRequest()); rec.Code != http.StatusOK {
			t.Fatalf("solve %d: status %d, body %s", i, rec.Code, rec.Body.String())
		}
	}

	sc := scrape(t, h)
	assertCounter := func(series string, labels map[string]string, min float64) {
		t.Helper()
		v, ok := sc.Value(series, labels)
		if !ok {
			t.Fatalf("series %s%v missing from /metrics", series, labels)
		}
		if v < min {
			t.Errorf("%s%v = %v, want >= %v", series, labels, v, min)
		}
	}
	assertCounter("faq_service_requests_total", map[string]string{"semiring": "count"}, 2)
	assertCounter("faqd_http_requests_total", map[string]string{"path": "/solve", "code": "200"}, 2)
	assertCounter("faq_plan_cache_hits_total", nil, 1)
	assertCounter("faq_plan_cache_misses_total", nil, 1)
	assertCounter("faq_exec_tasks_total", nil, 1)
	assertCounter("faq_go_goroutines", nil, 1)

	// The per-semiring latency histogram observed both requests and
	// holds the exposition invariants (the parser checked cumulativity).
	les, cum, ok := sc.HistBuckets("faq_service_request_ns", map[string]string{"semiring": "count"})
	if !ok {
		t.Fatal("faq_service_request_ns{semiring=count} missing")
	}
	if len(les) == 0 || cum[len(cum)-1] < 2 {
		t.Errorf("latency histogram count = %v, want >= 2", cum[len(cum)-1])
	}
	// The first solve compiled its plan: the compile histogram saw it.
	if _, cum, ok := sc.HistBuckets("faq_plan_compile_ns", nil); !ok || cum[len(cum)-1] < 1 {
		t.Errorf("faq_plan_compile_ns missing or empty (ok=%v)", ok)
	}

	// A second scrape must be monotone on the counters it re-reads.
	sc2 := scrape(t, h)
	v1, _ := sc.Value("faqd_http_requests_total", map[string]string{"path": "/metrics", "code": "200"})
	v2, _ := sc2.Value("faqd_http_requests_total", map[string]string{"path": "/metrics", "code": "200"})
	if v2 < v1+1 {
		t.Errorf("/metrics self-count did not advance: %v then %v", v1, v2)
	}
}

// TestMetricsServableWhileDraining pins the drain contract: a draining
// server rejects work (503 on /solve) but keeps the observability
// surface up (200 on /metrics, still parseable), so the final scrape
// of a terminating instance lands.
func TestMetricsServableWhileDraining(t *testing.T) {
	srv := newServer(faqs.WithPlanCache(16))
	h := srv.handler()
	if rec := do(t, h, http.MethodPost, "/solve", testRequest()); rec.Code != http.StatusOK {
		t.Fatalf("pre-drain solve: status %d", rec.Code)
	}

	srv.draining.Store(true)

	rec := do(t, h, http.MethodPost, "/solve", testRequest())
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /solve: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("draining /solve: missing Retry-After")
	}
	for _, path := range []string{"/materialize", "/update"} {
		if rec := do(t, h, http.MethodPost, path, testRequest()); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("draining %s: status %d, want 503", path, rec.Code)
		}
	}

	sc := scrape(t, h) // 200 + strict parse or it fails here
	if v, ok := sc.Value("faq_service_requests_total", map[string]string{"semiring": "count"}); !ok || v < 1 {
		t.Errorf("pre-drain request not visible in drain-time scrape (v=%v ok=%v)", v, ok)
	}
	if v, ok := sc.Value("faqd_http_requests_total", map[string]string{"path": "/solve", "code": "503"}); !ok || v < 1 {
		t.Errorf("drain rejection not counted (v=%v ok=%v)", v, ok)
	}
}

// TestDebugTraceEndpoint: solves leave traces with per-phase and
// per-GHD-node spans, served newest-first by /debug/trace.
func TestDebugTraceEndpoint(t *testing.T) {
	h := newServer(faqs.WithPlanCache(16)).handler()
	for i := 0; i < 2; i++ {
		if rec := do(t, h, http.MethodPost, "/solve", testRequest()); rec.Code != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, rec.Code)
		}
	}

	rec := do(t, h, http.MethodGet, "/debug/trace", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace: status %d, body %s", rec.Code, rec.Body.String())
	}
	var traces []faqs.Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatalf("decode traces: %v", err)
	}
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	newest := traces[0]
	if !newest.CacheHit {
		t.Errorf("newest trace (second solve) should be a cache hit")
	}
	if newest.Semiring != "count" {
		t.Errorf("trace semiring = %q, want count", newest.Semiring)
	}
	if len(newest.Fingerprint) != 16 {
		t.Errorf("trace fingerprint = %q, want 16 hex chars", newest.Fingerprint)
	}
	var phases, nodes int
	for _, sp := range newest.Spans {
		if strings.HasPrefix(sp.Name, "exec.node") {
			nodes++
		} else {
			phases++
		}
	}
	if phases < 5 {
		t.Errorf("newest trace has %d phase spans, want >= 5 (%v)", phases, newest.Spans)
	}
	if nodes < 1 {
		t.Errorf("newest trace has no per-node exec spans: %v", newest.Spans)
	}

	rec = do(t, h, http.MethodGet, "/debug/trace?n=1", nil)
	var one []faqs.Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil || len(one) != 1 {
		t.Fatalf("?n=1: err=%v len=%d, want 1 trace", err, len(one))
	}
	if rec := do(t, h, http.MethodGet, "/debug/trace?n=bogus", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("?n=bogus: status %d, want 400", rec.Code)
	}

	// A fresh server serves [] rather than null.
	rec = do(t, newServer().handler(), http.MethodGet, "/debug/trace", nil)
	if got := strings.TrimSpace(rec.Body.String()); got != "[]" {
		t.Errorf("empty trace buffer serves %q, want []", got)
	}
}
