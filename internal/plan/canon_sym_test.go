package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/workload"
)

// shuffleQuery is renameQuery plus a random edge order — the other
// freedom a request has in presenting one shape. (Binary-edge flips are
// presentations too, but hypergraph.AddEdge already sorts members.) ops
// follow their variables.
func shuffleQuery(r *rand.Rand, h *hypergraph.Hypergraph, free []int, ops map[int]string) (*hypergraph.Hypergraph, []int, map[int]string) {
	perm := r.Perm(h.NumVertices())
	out := hypergraph.New(h.NumVertices())
	for _, e := range r.Perm(h.NumEdges()) {
		vs := h.Edge(e)
		nv := make([]int, len(vs))
		for i, v := range vs {
			nv[i] = perm[v]
		}
		r.Shuffle(len(nv), func(i, j int) { nv[i], nv[j] = nv[j], nv[i] })
		out.AddEdge(nv...)
	}
	nf := make([]int, len(free))
	for i, v := range free {
		nf[i] = perm[v]
	}
	var nops map[int]string
	if ops != nil {
		nops = make(map[int]string, len(ops))
		for v, name := range ops {
			nops[perm[v]] = name
		}
	}
	return out, nf, nops
}

func starShape(k int) *hypergraph.Hypergraph {
	h := hypergraph.New(k + 1)
	for i := 1; i <= k; i++ {
		h.AddEdge(0, i)
	}
	return h
}

// TestSymmetricShapesStayExactAndCheap is the regression for the k!
// search: highly symmetric shapes must canonicalize exactly, to one Key
// under every presentation, within a node count linear in the shape's size
// — counted on the canonizer, so the bound does not depend on the host.
// Before orbit pruning star7 and wider exhausted canonBudget and came
// back Exact=false.
func TestSymmetricShapesStayExactAndCheap(t *testing.T) {
	type shape struct {
		name string
		h    *hypergraph.Hypergraph
		free []int
		ops  map[int]string
	}
	var shapes []shape
	for k := 7; k <= 16; k++ {
		shapes = append(shapes, shape{name: fmt.Sprintf("star%d", k), h: starShape(k), free: []int{0}})
	}
	btree := hypergraph.New(15)
	for v := 1; v < 15; v++ {
		btree.AddEdge((v-1)/2, v)
	}
	shapes = append(shapes, shape{name: "binary-tree-depth3", h: btree, free: []int{0}})
	paths := hypergraph.New(10)
	for i := 0; i < 4; i++ {
		paths.AddEdge(i, i+1)
		paths.AddEdge(5+i, 6+i)
	}
	shapes = append(shapes, shape{name: "two-paths", h: paths})
	par := hypergraph.New(4)
	for i := 0; i < 3; i++ {
		par.AddEdge(0, 1)
		par.AddEdge(2, 3)
	}
	par.AddEdge(1, 2)
	shapes = append(shapes, shape{name: "parallel-edges", h: par})
	shapes = append(shapes,
		shape{name: "K4", h: hypergraph.CliqueGraph(4)},
		shape{name: "C8", h: hypergraph.CycleGraph(8), free: []int{3}},
		shape{name: "C8-nofree", h: hypergraph.CycleGraph(8)},
		shape{name: "star9-mixed-marks", h: starShape(9), free: []int{1, 2, 3},
			ops: map[int]string{4: "mul", 5: "mul", 6: "max"}},
	)

	r := rand.New(rand.NewSource(18))
	for _, sh := range shapes {
		base, nodes, err := canonicalize(sh.h, sh.free, sh.ops, canonBudget)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		size := sh.h.NumVertices() + sh.h.NumEdges()
		if !base.Exact {
			t.Errorf("%s: not exact after %d search nodes", sh.name, nodes)
		}
		for trial := 0; trial < 32; trial++ {
			h, free, ops := shuffleQuery(r, sh.h, sh.free, sh.ops)
			got, n, err := canonicalize(h, free, ops, canonBudget)
			if err != nil {
				t.Fatalf("%s trial %d: %v", sh.name, trial, err)
			}
			if !got.Exact || got.Key != base.Key {
				t.Fatalf("%s trial %d: exact=%v key %q, want exact key %q", sh.name, trial, got.Exact, got.Key, base.Key)
			}
			nodes = max(nodes, n)
		}
		if nodes > size {
			t.Errorf("%s: %d search nodes for a shape of size %d (vertices+edges), want ≤ size", sh.name, nodes, size)
		}
		t.Logf("%s: size %d, ≤ %d search nodes", sh.name, size, nodes)
	}
}

// TestInexactFingerprintIsCountedAndStillServes starves the search of
// budget: the fingerprint must say so (Exact=false, one more
// faq_plan_canon_inexact_total), stay deterministic for the same
// presentation, and still compile and bind to a valid plan — an inexact
// labeling costs sharing, never correctness.
func TestInexactFingerprintIsCountedAndStillServes(t *testing.T) {
	h := hypergraph.CycleGraph(8)
	before := metricCanonInexact.Value()
	fp, nodes, err := canonicalize(h, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Exact {
		t.Fatalf("C8 canonicalized exactly in %d nodes under a budget of 1", nodes)
	}
	if got := metricCanonInexact.Value() - before; got != 1 {
		t.Errorf("faq_plan_canon_inexact_total moved by %d, want 1", got)
	}
	again, _, _ := canonicalize(h, nil, nil, 1)
	if again.Key != fp.Key {
		t.Errorf("inexact key is not deterministic: %q then %q", fp.Key, again.Key)
	}
	p, err := Compile(fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Bind(fp, h); err != nil {
		t.Errorf("binding an inexact fingerprint: %v", err)
	}
	if exact := mustCanon(t, h, nil, nil); !exact.Exact || metricCanonInexact.Value()-before != 2 {
		t.Errorf("full budget: exact=%v, counter moved by %d (want exact, 2)", exact.Exact, metricCanonInexact.Value()-before)
	}
}

var sinkFingerprint *Fingerprint

// BenchmarkCanonicalize prices the per-request fingerprint on the four
// serving templates plus a wide star, each under a shuffled
// presentation. A developer aid: the claim is bench/'s
// plan.canonicalize_ms_per_op.
func BenchmarkCanonicalize(b *testing.B) {
	type shape struct {
		name string
		h    *hypergraph.Hypergraph
		free []int
	}
	shapes := []shape{{"star12", starShape(12), []int{0}}}
	for _, t := range workload.Templates() {
		hb := hypergraph.NewBuilder()
		for _, e := range t.Edges() {
			hb.Edge(e...)
		}
		shapes = append(shapes, shape{t.Name, hb.Build(), []int{hb.VertexID(t.Free[0])}})
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			h, free, _ := shuffleQuery(rand.New(rand.NewSource(1)), sh.h, sh.free, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fp, err := Canonicalize(h, free, nil)
				if err != nil {
					b.Fatal(err)
				}
				sinkFingerprint = fp
			}
		})
	}
}
