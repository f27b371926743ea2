package cli

import "testing"

func TestParseQuery(t *testing.T) {
	h, err := ParseQuery("A,B; A,C ;A,D")
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if h.NumEdges() != 3 || h.NumVertices() != 4 {
		t.Fatalf("got %d edges / %d vertices, want 3 / 4", h.NumEdges(), h.NumVertices())
	}
	if got := h.Edge(0); len(got) != 2 {
		t.Fatalf("edge 0 = %v, want arity 2", got)
	}
}

func TestParseQueryMalformed(t *testing.T) {
	for _, spec := range []string{"", "   ", "A,B;;A,C", "A,B; ,", ";"} {
		if _, err := ParseQuery(spec); err == nil {
			t.Errorf("ParseQuery(%q): want error, got nil", spec)
		}
	}
}
