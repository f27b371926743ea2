package protocol

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/faq"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/topology"
)

// goldenShape is one query shape on one topology: factor i has schema
// edges[i], holds rows random tuples over [0, dom), and sits at player
// assign[i].
type goldenShape struct {
	edges  [][]int
	free   []int
	g      *topology.Graph
	assign Assignment
	output int
	rows   int
	dom    int
	seed   int64
}

func (sh goldenShape) hypergraph() *hypergraph.Hypergraph {
	nv := 0
	for _, e := range sh.edges {
		for _, v := range e {
			nv = max(nv, v+1)
		}
	}
	h := hypergraph.New(nv)
	for _, e := range sh.edges {
		h.AddEdge(e...)
	}
	return h
}

// goldenQuery draws the shape's factors under semiring s, with value(r)
// picking each row's annotation.
func goldenQuery[T any](sh goldenShape, s semiring.Semiring[T], value func(r *rand.Rand) T) *faq.Query[T] {
	h := sh.hypergraph()
	r := rand.New(rand.NewSource(sh.seed))
	factors := make([]*relation.Relation[T], h.NumEdges())
	for i := range factors {
		b := relation.NewBuilder(s, h.Edge(i))
		t := make([]int, len(h.Edge(i)))
		for k := 0; k < sh.rows; k++ {
			for j := range t {
				t[j] = r.Intn(sh.dom)
			}
			b.Add(t, value(r))
		}
		factors[i] = b.Build()
	}
	return &faq.Query[T]{S: s, H: h, Factors: factors, Free: sh.free, DomSize: sh.dom}
}

// renderAnswer prints a relation row by row; float values print in
// exact hexadecimal so the golden strings pin their bits.
func renderAnswer[T any](r *relation.Relation[T]) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v", r.Schema())
	for i := 0; i < r.Len(); i++ {
		switch v := any(r.Value(i)).(type) {
		case float64:
			fmt.Fprintf(&sb, " %v=%x", r.Tuple(i), v)
		default:
			fmt.Fprintf(&sb, " %v=%v", r.Tuple(i), v)
		}
	}
	return sb.String()
}

// goldenStarShapes cover every branch of the star reduction: the fast
// star (children share the center's key set W) with |W| ≤ 2 and
// |W| = 3, the general broadcast+converge star with child keys of ≤ 2
// and of 3 columns, several children owned by one player, and a core
// below the root. Stars run on cliques so the Steiner packings hold
// more than one tree.
var goldenStarShapes = map[string]goldenShape{
	"fast-w2": {
		edges: [][]int{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}},
		g:     topology.Clique(4), assign: Assignment{0, 1, 2}, output: 3,
		rows: 24, dom: 3, seed: 1,
	},
	"fast-w3": {
		edges: [][]int{{0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 2, 5}},
		g:     topology.Clique(4), assign: Assignment{0, 1, 2}, output: 3,
		rows: 30, dom: 2, seed: 2,
	},
	"fast-w3-free": {
		edges: [][]int{{0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 2, 5}},
		free:  []int{3},
		g:     topology.Clique(5), assign: Assignment{1, 2, 3}, output: 0,
		rows: 30, dom: 2, seed: 3,
	},
	"general-w2": {
		edges: [][]int{{0, 1, 2}, {1, 3}, {0, 1, 4}, {2, 5}},
		g:     topology.Clique(4), assign: Assignment{0, 1, 2, 3}, output: 1,
		rows: 16, dom: 3, seed: 4,
	},
	"general-w3": {
		edges: [][]int{{0, 1, 2, 3}, {0, 1, 2, 4}, {3, 5}},
		g:     topology.Clique(4), assign: Assignment{0, 1, 2}, output: 3,
		rows: 30, dom: 2, seed: 5,
	},
	"fast-shared-owner": {
		edges: [][]int{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {0, 1, 5}},
		g:     topology.Clique(4), assign: Assignment{0, 1, 1, 2}, output: 3,
		rows: 24, dom: 3, seed: 6,
	},
	"general-shared-owner": {
		edges: [][]int{{0, 1, 2, 3}, {0, 1, 2, 4}, {3, 5}, {0, 6}},
		g:     topology.Clique(4), assign: Assignment{0, 1, 1, 2}, output: 3,
		rows: 30, dom: 2, seed: 7,
	},
	"core-below-root": {
		edges: [][]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}},
		free:  []int{5},
		g:     topology.Line(4), assign: Assignment{0, 1, 2, 3, 0, 1}, output: 3,
		rows: 12, dom: 4, seed: 67,
	},
}

// goldenStar pins Report{Rounds, Bits} and the answer of every golden
// shape under the counting and the sum-product semiring.
var goldenStar = map[string][2]string{
	"fast-w2": {
		"rounds=7 bits=134 ans=[] []=1318",
		"rounds=7 bits=134 ans=[] []=0x1.4edcb0f497621p+05",
	},
	"fast-w3": {
		"rounds=7 bits=81 ans=[] []=3268",
		"rounds=7 bits=81 ans=[] []=0x1.2f2d21ed4cf6cp+06",
	},
	"fast-w3-free": {
		"rounds=11 bits=132 ans=[3] [0]=2154 [1]=1029",
		"rounds=11 bits=132 ans=[3] [0]=0x1.226837972187ap+06 [1]=0x1.66da74849ec82p+04",
	},
	"general-w2": {
		"rounds=18 bits=560 ans=[] []=15949",
		"rounds=18 bits=560 ans=[] []=0x1.31374eab7c7a3p+06",
	},
	"general-w3": {
		"rounds=17 bits=356 ans=[] []=12995",
		"rounds=17 bits=356 ans=[] []=0x1.0428ca8afffa4p+09",
	},
	"fast-shared-owner": {
		"rounds=7 bits=134 ans=[] []=5032",
		"rounds=7 bits=134 ans=[] []=0x1.2fd7a8c94878ep+06",
	},
	"general-shared-owner": {
		"rounds=17 bits=341 ans=[] []=505120",
		"rounds=17 bits=341 ans=[] []=0x1.2816da843faffp+12",
	},
	"core-below-root": {
		"rounds=40 bits=420 ans=[5] [0]=3629 [1]=3384 [2]=12952 [3]=7492",
		"rounds=40 bits=420 ans=[5] [0]=0x1.85128c77bd296p+01 [1]=0x1.98b0b656ba2aep+01 [2]=0x1.37f1f3e440ea1p+03 [3]=0x1.ac0b00ea2d3c6p+02",
	},
}

func runGolden[T any](t *testing.T, sh goldenShape, q *faq.Query[T]) string {
	t.Helper()
	ans, rep, err := Run(&Setup[T]{Q: q, G: sh.g, Assign: sh.assign, Output: sh.output})
	if err != nil {
		t.Fatal(err)
	}
	want, err := faq.BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(q.S, ans, want) {
		t.Fatalf("answer %v differs from BruteForce %v", renderAnswer(ans), renderAnswer(want))
	}
	return fmt.Sprintf("rounds=%d bits=%d ans=%s", rep.Rounds, rep.Bits, renderAnswer(ans))
}

// TestGoldenStarReports pins the exact cost and answer of each star
// branch, so a rewrite of the converge-cast must reproduce the same
// schedule item for item.
func TestGoldenStarReports(t *testing.T) {
	for name, sh := range goldenStarShapes {
		t.Run(name, func(t *testing.T) {
			got := [2]string{
				runGolden(t, sh, goldenQuery[int64](sh, semiring.Count{}, func(r *rand.Rand) int64 { return int64(1 + r.Intn(3)) })),
				runGolden(t, sh, goldenQuery[float64](sh, semiring.SumProduct{}, func(r *rand.Rand) float64 { return 0.1 + r.Float64() })),
			}
			if got != goldenStar[name] {
				t.Errorf("%q: {%q, %q}", name, got[0], got[1])
			}
		})
	}
}

// TestGoldenSetIntersection pins Theorem 3.11's protocol over
// multi-tree packings (Example 2.3's clique and larger), a ring, and a
// line whose output and middle node relay without holding a set.
func TestGoldenSetIntersection(t *testing.T) {
	cases := map[string]struct {
		g       *topology.Graph
		output  int
		want    string
		holders []int // nil: every node holds a set
	}{
		"clique4": {topology.Clique(4), 1,
			"rounds=45 bits=1519 n=43 [0 6 7 14 17 18 19 21 23 24 27 29 30 32 34 39 43 46 47 49 51 52 53 54 56 57 58 60 61 62 64 67 72 74 75 79 83 84 85 86 87 90 95]", nil},
		"clique5": {topology.Clique(5), 0,
			"rounds=42 bits=1876 n=38 [0 6 7 14 17 18 19 21 23 24 27 29 30 32 34 39 43 47 49 51 52 53 54 57 58 60 61 62 64 72 74 75 79 84 85 86 87 95]", nil},
		"line5-relay": {topology.Line(5), 1,
			"rounds=86 bits=2023 n=57 [0 6 7 10 14 17 18 19 21 22 23 24 27 29 30 32 34 35 39 42 43 46 47 49 50 51 52 53 54 56 57 58 59 60 61 62 63 64 65 66 67 71 72 73 74 75 79 81 83 84 85 86 87 88 90 93 95]",
			[]int{0, 3, 4}},
		"ring5": {topology.Ring(5), 2,
			"rounds=80 bits=1988 n=38 [0 6 7 14 17 18 19 21 23 24 27 29 30 32 34 39 43 47 49 51 52 53 54 57 58 60 61 62 64 72 74 75 79 84 85 86 87 95]", nil},
	}
	for name, c := range cases {
		r := rand.New(rand.NewSource(9))
		sets := map[int][]int{}
		for u := 0; u < c.g.N(); u++ {
			if c.holders != nil && !slices.Contains(c.holders, u) {
				continue
			}
			for x := 0; x < 96; x++ {
				if r.Intn(5) > 0 {
					sets[u] = append(sets[u], x)
				}
			}
		}
		got, rep, err := SetIntersection(&SetIntersectionInput{G: c.g, Sets: sets, Output: c.output, Universe: 96})
		if err != nil {
			t.Fatal(err)
		}
		if s := fmt.Sprintf("rounds=%d bits=%d n=%d %v", rep.Rounds, rep.Bits, len(got), got); s != c.want {
			t.Errorf("%s: %q", name, s)
		}
	}
}

// TestRunMatchesBruteForceWideKeys is a randomized differential on
// stars whose children share three columns with the center — keys
// wider than the two columns one packed word holds — mixed with
// narrower heterogeneous children, on random topologies.
func TestRunMatchesBruteForceWideKeys(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		center := []int{0, 1, 2, 3}
		edges := [][]int{center}
		next := 4
		for c := 0; c < 2+r.Intn(3); c++ {
			var e []int
			switch r.Intn(3) {
			case 0: // the full three-column key
				e = []int{0, 1, 2}
			case 1: // another three-column key
				e = []int{1, 2, 3}
			default: // a narrower key
				e = []int{r.Intn(4)}
			}
			edges = append(edges, append(e, next))
			next++
		}
		sh := goldenShape{edges: edges, rows: 6 + r.Intn(20), dom: 2, seed: r.Int63()}
		if r.Intn(3) == 0 {
			sh.free = []int{r.Intn(next)}
		}
		sh.g = topology.RandomConnected(2+r.Intn(4), r.Intn(4), r)
		sh.assign = make(Assignment, len(edges))
		for i := range sh.assign {
			sh.assign[i] = r.Intn(sh.g.N())
		}
		sh.output = r.Intn(sh.g.N())
		q := goldenQuery[int64](sh, semiring.Count{}, func(r *rand.Rand) int64 { return int64(1 + r.Intn(3)) })
		ans, _, err := Run(&Setup[int64]{Q: q, G: sh.g, Assign: sh.assign, Output: sh.output})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := faq.BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(q.S, ans, want) {
			t.Fatalf("trial %d (%v free %v): distributed %s != brute force %s",
				trial, edges, sh.free, renderAnswer(ans), renderAnswer(want))
		}
	}
}

// TestGeneralStarScalarChild runs a caller-chosen GHD that hangs a
// disconnected factor under a star center: its message has no variable
// in common with the center, so in the general star it is a scalar that
// matches every center tuple when non-empty and none when empty.
func TestGeneralStarScalarChild(t *testing.T) {
	sh := goldenShape{
		edges: [][]int{{0, 1, 2}, {1, 3}, {4, 5}},
		g:     topology.Clique(4), assign: Assignment{0, 1, 2}, output: 3,
		rows: 10, dom: 3, seed: 8,
	}
	h := sh.hypergraph()
	star := &ghd.GHD{
		H:        h,
		Bags:     [][]int{h.Edge(0), h.Edge(1), h.Edge(2)},
		Labels:   [][]int{{0}, {1}, {2}},
		Parent:   []int{-1, 0, 0},
		Root:     0,
		NodeOf:   []int{0, 1, 2},
		CoreRoot: -1,
	}
	if err := star.Validate(); err != nil {
		t.Fatal(err)
	}
	want := map[bool]string{
		false: "rounds=11 bits=255 ans=[] []=1458",
		true:  "rounds=9 bits=189 ans=[]",
	}
	for _, empty := range []bool{false, true} {
		q := goldenQuery[int64](sh, semiring.Count{}, func(r *rand.Rand) int64 { return int64(1 + r.Intn(3)) })
		if empty {
			q.Factors[2] = relation.Empty[int64](h.Edge(2))
		}
		ans, rep, err := RunOnGHD(&Setup[int64]{Q: q, G: sh.g, Assign: sh.assign, Output: sh.output}, star)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := faq.BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(q.S, ans, ref) {
			t.Fatalf("empty=%v: answer %s, BruteForce %s", empty, renderAnswer(ans), renderAnswer(ref))
		}
		if got := fmt.Sprintf("rounds=%d bits=%d ans=%s", rep.Rounds, rep.Bits, renderAnswer(ans)); got != want[empty] {
			t.Errorf("empty=%v: %q", empty, got)
		}
	}
}
