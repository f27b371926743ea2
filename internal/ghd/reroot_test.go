package ghd

import (
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
)

// TestReRootPreservesValidity re-roots random forest GHDs at every node
// and revalidates: the running intersection property is unrooted, so
// every re-rooting must stay a valid GHD covering the same edges.
func TestReRootPreservesValidity(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(6)
		h := hypergraph.New(n)
		for v := 1; v < n; v++ {
			h.AddEdge(r.Intn(v), v)
		}
		g, err := Construct(h)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumNodes(); v++ {
			rr := g.ReRoot(v)
			if rr.Root != v {
				t.Fatalf("ReRoot(%d).Root = %d", v, rr.Root)
			}
			if err := rr.Validate(); err != nil {
				t.Fatalf("re-rooted at %d invalid: %v\noriginal:\n%s", v, err, g)
			}
			if rr.NumNodes() != g.NumNodes() {
				t.Fatal("ReRoot changed node count")
			}
		}
	}
}

// TestReRootIdempotentAtRoot keeps the tree identical when re-rooting
// at the existing root.
func TestReRootIdempotentAtRoot(t *testing.T) {
	g, err := Construct(hypergraph.ExampleH2())
	if err != nil {
		t.Fatal(err)
	}
	rr := g.ReRoot(g.Root)
	for v := range g.Parent {
		if rr.Parent[v] != g.Parent[v] {
			t.Fatalf("parent of %d changed: %d -> %d", v, g.Parent[v], rr.Parent[v])
		}
	}
}

// TestReRootInternalCount verifies that re-rooting a star GHD at a leaf
// adds exactly one internal node (the old leaf becomes a chain head).
func TestReRootInternalCount(t *testing.T) {
	g, err := Minimize(hypergraph.ExampleH1())
	if err != nil {
		t.Fatal(err)
	}
	if g.InternalNodes() != 1 {
		t.Fatalf("star GHD internal = %d, want 1", g.InternalNodes())
	}
	// Find a leaf.
	ch := g.Children()
	leaf := -1
	for v := range ch {
		if len(ch[v]) == 0 {
			leaf = v
			break
		}
	}
	rr := g.ReRoot(leaf)
	if err := rr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := rr.InternalNodes(); got != 2 {
		t.Errorf("re-rooted internal = %d, want 2", got)
	}
}

// TestWidthStability: Minimize must be deterministic across calls.
func TestWidthStability(t *testing.T) {
	for i := 0; i < 3; i++ {
		y1, err1 := Width(hypergraph.ExampleH3())
		y2, err2 := Width(hypergraph.ExampleH3())
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if y1 != y2 {
			t.Fatalf("width changed across calls: %d vs %d", y1, y2)
		}
	}
}

// TestDuplicateEdgesGHD covers multi-hypergraphs: H0's four identical
// self-loops each need their own node.
func TestDuplicateEdgesGHD(t *testing.T) {
	h := hypergraph.ExampleH0()
	g, err := Minimize(h)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 {
		t.Errorf("nodes = %d, want 4 (one per duplicate edge)", g.NumNodes())
	}
	seen := map[int]bool{}
	for e, v := range g.NodeOf {
		if seen[v] {
			t.Errorf("edge %d shares node %d with another edge", e, v)
		}
		seen[v] = true
	}
	if got := g.InternalNodes(); got != 1 {
		t.Errorf("y(H0) = %d, want 1", got)
	}
}
