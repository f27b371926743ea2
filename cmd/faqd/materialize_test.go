package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/faqs"
)

// minplusRequest is a two-edge path over the tropical semiring — its
// views maintain via the recompute fallback, moving delta_fallbacks.
func minplusRequest() *faqs.WireRequest {
	return &faqs.WireRequest{
		Semiring: "minplus",
		Edges:    [][]string{{"A", "B"}, {"B", "C"}},
		Factors: []faqs.WireFactor{
			{Tuples: [][]int{{0, 1}, {2, 1}, {3, 3}}, Values: []float64{1, 2, 3}},
			{Tuples: [][]int{{1, 0}, {1, 2}, {3, 1}}, Values: []float64{1, 1, 2}},
		},
		Free: []string{"A"},
		Dom:  4,
	}
}

func decodeMat(t *testing.T, rec *httptest.ResponseRecorder) faqs.WireMaterializedAnswer {
	t.Helper()
	var wa faqs.WireMaterializedAnswer
	if err := json.Unmarshal(rec.Body.Bytes(), &wa); err != nil {
		t.Fatalf("decode materialized answer: %v (body %s)", err, rec.Body.String())
	}
	return wa
}

// TestMaterializeUpdateHandlers drives the wire lifecycle: register a
// named view, update it, verify the re-answer matches a fresh /solve of
// the mutated query, then close it.
func TestMaterializeUpdateHandlers(t *testing.T) {
	mux := newServer(faqs.WithPlanCache(16)).mux()

	rec := postJSON(t, mux, "/materialize", faqs.WireMaterializeRequest{Name: "v1", Request: *testRequest()})
	if rec.Code != http.StatusOK {
		t.Fatalf("materialize: status %d, body %s", rec.Code, rec.Body.String())
	}
	wa := decodeMat(t, rec)
	if wa.Name != "v1" || wa.Strategy != "ring" {
		t.Fatalf("materialized answer header: %+v", wa)
	}
	solved := postJSON(t, mux, "/solve", testRequest())
	var sw faqs.WireAnswer
	if err := json.Unmarshal(solved.Body.Bytes(), &sw); err != nil {
		t.Fatal(err)
	}
	if len(wa.Tuples) != len(sw.Tuples) {
		t.Fatalf("initial view answer %v differs from /solve %v", wa.Tuples, sw.Tuples)
	}

	// Duplicate registration: 409, the original view keeps serving.
	if rec := postJSON(t, mux, "/materialize", faqs.WireMaterializeRequest{Name: "v1", Request: *testRequest()}); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate materialize: status %d, want 409", rec.Code)
	}

	// Update: insert one tuple; the response must equal a /solve of the
	// mutated request.
	rec = postJSON(t, mux, "/update", faqs.WireUpdateRequest{
		Name: "v1", Factor: 0,
		Inserts: []faqs.WireTupleUpdate{{Tuple: []int{1, 1}}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("update: status %d, body %s", rec.Code, rec.Body.String())
	}
	wa = decodeMat(t, rec)
	mutated := testRequest()
	mutated.Factors[0].Tuples = append(mutated.Factors[0].Tuples, []int{1, 1})
	solved = postJSON(t, mux, "/solve", mutated)
	if err := json.Unmarshal(solved.Body.Bytes(), &sw); err != nil {
		t.Fatal(err)
	}
	if len(wa.Tuples) != len(sw.Tuples) || len(wa.Values) != len(sw.Values) {
		t.Fatalf("updated view %v/%v differs from re-solve %v/%v", wa.Tuples, wa.Values, sw.Tuples, sw.Values)
	}
	for i := range wa.Values {
		if wa.Values[i] != sw.Values[i] {
			t.Fatalf("updated view values %v differ from re-solve %v", wa.Values, sw.Values)
		}
	}

	// Unknown view: 404. Unknown tuple delete: 422, view still serves.
	if rec := postJSON(t, mux, "/update", faqs.WireUpdateRequest{Name: "nope", Factor: 0}); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown view: status %d, want 404", rec.Code)
	}
	if rec := postJSON(t, mux, "/update", faqs.WireUpdateRequest{
		Name: "v1", Factor: 99,
		Inserts: []faqs.WireTupleUpdate{{Tuple: []int{0, 0}}},
	}); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad factor: status %d, want 422", rec.Code)
	}

	// Close: the view releases and its name frees up.
	rec = postJSON(t, mux, "/update", faqs.WireUpdateRequest{Name: "v1", Close: true})
	if rec.Code != http.StatusOK || !decodeMat(t, rec).Closed {
		t.Fatalf("close: status %d, body %s", rec.Code, rec.Body.String())
	}
	if rec := postJSON(t, mux, "/update", faqs.WireUpdateRequest{Name: "v1", Factor: 0, Inserts: []faqs.WireTupleUpdate{{Tuple: []int{0, 0}}}}); rec.Code != http.StatusNotFound {
		t.Fatalf("update after close: status %d, want 404", rec.Code)
	}
	if rec := postJSON(t, mux, "/materialize", faqs.WireMaterializeRequest{Name: "v1", Request: *testRequest()}); rec.Code != http.StatusOK {
		t.Fatalf("re-materialize after close: status %d", rec.Code)
	}
}

// TestStatsUpdatesCounters pins the new Stats fields on the wire:
// ring updates move updates only; recompute-fallback updates move both
// updates and delta_fallbacks.
func TestStatsUpdatesCounters(t *testing.T) {
	srv := newServer(faqs.WithPlanCache(16))
	mux := srv.mux()

	postJSON(t, mux, "/materialize", faqs.WireMaterializeRequest{Name: "c", Request: *testRequest()})
	postJSON(t, mux, "/materialize", faqs.WireMaterializeRequest{Name: "m", Request: *minplusRequest()})
	for i := 0; i < 2; i++ {
		rec := postJSON(t, mux, "/update", faqs.WireUpdateRequest{
			Name: "c", Factor: 0, Inserts: []faqs.WireTupleUpdate{{Tuple: []int{i, i}}},
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("count update %d: status %d, body %s", i, rec.Code, rec.Body.String())
		}
	}
	one := 1.0
	rec := postJSON(t, mux, "/update", faqs.WireUpdateRequest{
		Name: "m", Factor: 1, Inserts: []faqs.WireTupleUpdate{{Tuple: []int{2, 2}, Value: &one}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("minplus update: status %d, body %s", rec.Code, rec.Body.String())
	}

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	srec := httptest.NewRecorder()
	mux.ServeHTTP(srec, req)
	var st statsPayload
	if err := json.Unmarshal(srec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	byName := map[string]faqs.ServiceStats{}
	for _, ss := range st.Services {
		byName[ss.Semiring] = ss
	}
	if c := byName["count"]; c.Updates != 2 || c.DeltaFallbacks != 0 {
		t.Fatalf("count updates/delta_fallbacks = %d/%d, want 2/0", c.Updates, c.DeltaFallbacks)
	}
	if m := byName["minplus"]; m.Updates != 1 || m.DeltaFallbacks != 1 {
		t.Fatalf("minplus updates/delta_fallbacks = %d/%d, want 1/1", m.Updates, m.DeltaFallbacks)
	}

	// The raw JSON must carry the documented field names.
	body := srec.Body.String()
	for _, field := range []string{`"updates"`, `"delta_fallbacks"`} {
		if !strings.Contains(body, field) {
			t.Fatalf("stats JSON missing %s: %s", field, body)
		}
	}
}

// TestMaterializeUpdateRejectTrailingInput: /materialize and /update
// read their bodies like /solve, so input after the top-level JSON
// value is a 400 and the view registry does not change.
func TestMaterializeUpdateRejectTrailingInput(t *testing.T) {
	srv := newServer(faqs.WithPlanCache(16))
	mux := srv.mux()
	if rec := postJSON(t, mux, "/materialize", faqs.WireMaterializeRequest{Name: "v1", Request: *testRequest()}); rec.Code != http.StatusOK {
		t.Fatalf("materialize: status %d, body %s", rec.Code, rec.Body.String())
	}
	post := func(path string, payload any) *httptest.ResponseRecorder {
		body, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		body = append(body, " junk"...)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	if rec := post("/materialize", faqs.WireMaterializeRequest{Name: "v2", Request: *testRequest()}); rec.Code != http.StatusBadRequest {
		t.Fatalf("/materialize with trailing input: status %d, want 400", rec.Code)
	}
	if rec := post("/update", faqs.WireUpdateRequest{Name: "v1", Close: true}); rec.Code != http.StatusBadRequest {
		t.Fatalf("/update with trailing input: status %d, want 400", rec.Code)
	}
	srv.matsMu.Lock()
	_, v1 := srv.mats["v1"]
	n := len(srv.mats)
	srv.matsMu.Unlock()
	if !v1 || n != 1 {
		t.Fatalf("view registry changed by rejected requests: v1 present %v, %d views", v1, n)
	}
}
