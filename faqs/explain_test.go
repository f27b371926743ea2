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
