package faq

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// TestErrFreeOutsideRootSentinel pins the sentinel contract that
// protocol.solveCentral's fallback decision relies on: both RootForFree
// and SolveGHD must wrap ErrFreeOutsideRoot when the free-variable
// restriction fails, and nothing else may.
func TestErrFreeOutsideRootSentinel(t *testing.T) {
	h := hypergraph.PathGraph(5)
	factors := make([]*relation.Relation[bool], h.NumEdges())
	for i := range factors {
		b := relation.NewBuilder[bool](sb, h.Edge(i))
		b.AddOne(0, 0)
		factors[i] = b.Build()
	}
	q := &Query[bool]{S: sb, H: h, Factors: factors, Free: []int{0, 4}, DomSize: 2}

	if _, err := Solve(q); !errors.Is(err, ErrFreeOutsideRoot) {
		t.Errorf("Solve error = %v, want wrapped ErrFreeOutsideRoot", err)
	}

	g, err := ghd.Minimize(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RootForFree(g, []int{0, 4}); !errors.Is(err, ErrFreeOutsideRoot) {
		t.Errorf("RootForFree error = %v, want wrapped ErrFreeOutsideRoot", err)
	}
	if _, _, err := SolveGHD(nil, q, g, SolveOptions{}); !errors.Is(err, ErrFreeOutsideRoot) {
		t.Errorf("SolveGHD error = %v, want wrapped ErrFreeOutsideRoot", err)
	}
	// A validation failure must NOT satisfy the sentinel: callers would
	// otherwise mask real errors behind the brute-force fallback.
	bad := &Query[bool]{S: sb, H: h, Factors: factors, Free: nil, DomSize: 0}
	if _, _, err := SolveGHD(nil, bad, g, SolveOptions{}); err == nil || errors.Is(err, ErrFreeOutsideRoot) {
		t.Errorf("validation error = %v must not wrap the sentinel", err)
	}
}

// TestRootForFreeMatchesRerootScan checks the degree-based internal-node
// computation against the materializing reference (g.ReRoot(v) for every
// candidate) on random trees: same chosen root, same y.
func TestRootForFreeMatchesRerootScan(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		h, factors := randomTreeQuery(r, 3+r.Intn(7), 3, 3)
		_ = factors
		g, err := ghd.Minimize(h)
		if err != nil {
			t.Fatal(err)
		}
		// Pick a free set covered by at least one bag: a random bag.
		free := g.Bags[r.Intn(g.NumNodes())]
		got, err := RootForFree(g, free)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: the pre-optimization scan.
		covers := func(v int) bool {
			for _, x := range free {
				if !hypergraph.ContainsSorted(g.Bags[v], x) {
					return false
				}
			}
			return true
		}
		wantRoot := -1
		bestY := 0
		if covers(g.Root) {
			wantRoot = g.Root
		} else {
			for v := 0; v < g.NumNodes(); v++ {
				if !covers(v) {
					continue
				}
				if y := g.ReRoot(v).InternalNodes(); wantRoot == -1 || y < bestY {
					wantRoot, bestY = v, y
				}
			}
		}
		if got.Root != wantRoot {
			t.Fatalf("trial %d: RootForFree picked %d, reference picks %d", trial, got.Root, wantRoot)
		}
		if wantRoot != g.Root && got.InternalNodes() != bestY {
			t.Fatalf("trial %d: InternalNodes = %d, reference %d", trial, got.InternalNodes(), bestY)
		}
	}
}

// TestSolveGHDParallelBitIdentical is the parallel≡sequential axis of
// the solver: the same query solved at 1 and at 8 workers must produce
// bit-identical relations (schema, row buffer, values), not merely
// semiring-equal ones.
func TestSolveGHDParallelBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 30; trial++ {
		h, factors := randomTreeQuery(r, 4+r.Intn(8), 4, 2+r.Intn(10))
		free := []int{}
		q := &Query[float64]{S: sp, H: h, Factors: factors, Free: free, DomSize: 4}
		g, err := ghd.Minimize(h)
		if err != nil {
			t.Fatal(err)
		}

		prev := exec.SetWorkers(1)
		want, _, err1 := SolveGHD(nil, q, g, SolveOptions{})
		exec.SetWorkers(8)
		got, _, err2 := SolveGHD(nil, q, g, SolveOptions{})
		exec.SetWorkers(prev)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !relation.Equal(sp, got, want) {
			t.Fatalf("trial %d: parallel solve != sequential solve", trial)
		}
		if !slices.Equal(got.Schema(), want.Schema()) {
			t.Fatalf("trial %d: schema drift", trial)
		}
		for i := 0; i < got.Len(); i++ {
			if got.Value(i) != want.Value(i) { // exact float bits, not tolerance
				t.Fatalf("trial %d tuple %d: value %v != %v (bit drift)", trial, i, got.Value(i), want.Value(i))
			}
		}
	}
}

// TestSolveParallelPropagatesErrors drives a mid-tree aggregation error
// through the concurrent Forest dispatch.
func TestSolveParallelPropagatesErrors(t *testing.T) {
	h, factors := randomTreeQuery(rand.New(rand.NewSource(77)), 6, 3, 4)
	q := &Query[float64]{S: sp, H: h, Factors: factors, Free: nil, DomSize: 0} // invalid
	prev := exec.SetWorkers(8)
	defer exec.SetWorkers(prev)
	if _, err := Solve(q); err == nil {
		t.Fatal("expected validation error through parallel path")
	}
}
