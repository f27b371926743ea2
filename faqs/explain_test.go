package faqs

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestExplainReportsFingerprintExact pins the observable half of the
// canonicalization contract: Explain (and so /explain) says whether the
// plan fingerprint is exact, and a nine-leaf star — whose 9! leaf orders
// used to exhaust the search budget — now is.
func TestExplainReportsFingerprintExact(t *testing.T) {
	wr := &WireRequest{Semiring: "count", Free: []string{"C"}, Dom: 2}
	for i := 0; i < 9; i++ {
		wr.Edges = append(wr.Edges, []string{"C", fmt.Sprintf("L%d", i)})
		wr.Factors = append(wr.Factors, WireFactor{Tuples: [][]int{{0, 1}}})
	}
	q, err := BuildWireQuery(wr)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	defer eng.Close()
	ex, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.FingerprintExact {
		t.Errorf("star9: fingerprint reported inexact")
	}
	body, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"fingerprint_exact":true`) {
		t.Errorf("explain JSON lacks fingerprint_exact: %s", body)
	}
}

// TestExplainReportsExactWidthPastSevenEdges pins the y Explain reports
// (plan.Compile's, served by /explain) on an 8-edge caterpillar: spine
// S0–S1–S2 with two legs per spine vertex. Past seven edges the Prüfer
// walk used to give way to the construction heuristic, which reports 3;
// y(H) is 2, the two spine edges, since every leg hangs off one of them.
func TestExplainReportsExactWidthPastSevenEdges(t *testing.T) {
	wr := &WireRequest{Semiring: "count", Free: []string{"S1"}, Dom: 2}
	edge := func(a, b string) {
		wr.Edges = append(wr.Edges, []string{a, b})
		wr.Factors = append(wr.Factors, WireFactor{Tuples: [][]int{{0, 1}}})
	}
	edge("S0", "S1")
	edge("S1", "S2")
	for i := 0; i < 3; i++ {
		for l := 0; l < 2; l++ {
			edge(fmt.Sprintf("S%d", i), fmt.Sprintf("L%d_%d", i, l))
		}
	}
	q, err := BuildWireQuery(wr)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	defer eng.Close()
	ex, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Y != 2 {
		t.Errorf("caterpillar8: y = %d, want 2\n%s", ex.Y, ex.Tree)
	}
}
