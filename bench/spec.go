package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/faqs"
	"repro/internal/hypergraph"
	"repro/internal/plan"
	tpl "repro/internal/workload"
)

// factorSpec is one generated input relation: tuples flattened row by
// row in the order of Attrs. A nil Values annotates every tuple with the
// semiring's 1, exactly as a plain wire factor does.
type factorSpec struct {
	Attrs  []string
	Rows   []int
	Values []float64
}

func (f *factorSpec) len() int { return len(f.Rows) / len(f.Attrs) }

func (f *factorSpec) tuple(i int) []int {
	a := len(f.Attrs)
	return f.Rows[i*a : (i+1)*a]
}

// querySpec is one generated FAQ in a representation-neutral form. The
// generators produce only this; the engine under test receives it as a
// faqs.Query or a wire body, and the reference path as an internal typed
// query, so the seed never reaches the program.
type querySpec struct {
	Semiring string
	Factors  []factorSpec
	Free     []string
	Dom      int
}

// shape is the data-free part of a query: hyperedges and free variables.
type shape struct {
	Edges [][]string
	Free  []string
}

func templateShape(name string) shape {
	t, ok := tpl.TemplateByName(name)
	if !ok {
		panic("bench: unknown template " + name)
	}
	return shape{Edges: t.Edges(), Free: t.Free}
}

// rename returns sh under a fresh variable naming, with the edge order
// shuffled and binary edges randomly flipped, so every request's
// first-appearance variable ids differ and canonicalization does real
// work. prefix keeps names of different requests disjoint.
func rename(sh shape, rng *rand.Rand, prefix string) shape {
	names := map[string]string{}
	var order []string
	for _, e := range sh.Edges {
		for _, v := range e {
			if _, ok := names[v]; !ok {
				names[v] = ""
				order = append(order, v)
			}
		}
	}
	for i, p := range rng.Perm(len(order)) {
		names[order[i]] = fmt.Sprintf("%s%d", prefix, p)
	}
	out := shape{Edges: make([][]string, len(sh.Edges))}
	for i, p := range rng.Perm(len(sh.Edges)) {
		e := sh.Edges[p]
		ne := make([]string, len(e))
		for k, v := range e {
			ne[k] = names[v]
		}
		if len(ne) == 2 && rng.Intn(2) == 1 {
			ne[0], ne[1] = ne[1], ne[0]
		}
		out.Edges[i] = ne
	}
	for _, v := range sh.Free {
		out.Free = append(out.Free, names[v])
	}
	return out
}

// valueKind selects how generated tuples are annotated.
type valueKind int

const (
	valuesOne   valueKind = iota // nil Values: every tuple is the semiring's 1
	valuesSmall                  // integers in {1,2,3} (Count)
	valuesFloat                  // 0.25 + U[0,1) (SumProduct, MinPlus)
)

func valueKindOf(semiring string) valueKind {
	switch semiring {
	case "count":
		return valuesSmall
	case "sumproduct", "minplus":
		return valuesFloat
	}
	return valuesOne
}

// fill generates n uniform tuples over [0,dom) per factor. With distinct
// set, no tuple repeats within a factor (the view workloads need every
// listed tuple to be one deletable contribution).
func fill(sh shape, semiring string, n, dom int, rng *rand.Rand, distinct bool) *querySpec {
	q := &querySpec{Semiring: semiring, Free: sh.Free, Dom: dom}
	kind := valueKindOf(semiring)
	for _, e := range sh.Edges {
		f := factorSpec{Attrs: e, Rows: make([]int, 0, n*len(e))}
		if kind != valuesOne {
			f.Values = make([]float64, 0, n)
		}
		var seen map[uint64]bool
		if distinct {
			if cells := math.Pow(float64(dom), float64(len(e))); float64(n) > cells/2 {
				panic(fmt.Sprintf("bench: %d distinct tuples do not fit a domain of %.0f cells", n, cells))
			}
			seen = make(map[uint64]bool, n)
		}
		row := make([]int, len(e))
		for i := 0; i < n; i++ {
			for {
				key := uint64(0)
				for k := range row {
					row[k] = rng.Intn(dom)
					key = key*uint64(dom) + uint64(row[k])
				}
				if !distinct || !seen[key] {
					if distinct {
						seen[key] = true
					}
					break
				}
			}
			f.Rows = append(f.Rows, row...)
			switch kind {
			case valuesSmall:
				f.Values = append(f.Values, float64(1+rng.Intn(3)))
			case valuesFloat:
				f.Values = append(f.Values, 0.25+rng.Float64())
			}
		}
		q.Factors = append(q.Factors, f)
	}
	return q
}

// wire renders the spec as the JSON request schema faqd serves.
func (q *querySpec) wire() *faqs.WireRequest {
	wr := &faqs.WireRequest{Semiring: q.Semiring, Free: q.Free, Dom: q.Dom}
	for i := range q.Factors {
		f := &q.Factors[i]
		wr.Edges = append(wr.Edges, f.Attrs)
		wf := faqs.WireFactor{Tuples: make([][]int, f.len()), Values: f.Values}
		for t := range wf.Tuples {
			wf.Tuples[t] = f.tuple(t)
		}
		wr.Factors = append(wr.Factors, wf)
	}
	return wr
}

// facade builds the spec through the public query builders, the way a
// library embedder would.
func (q *querySpec) facade() (*faqs.Query, error) {
	return faqs.BuildWireQuery(q.wire())
}

// hypergraphOf mirrors the façade's variable numbering (first
// appearance across factors) and returns each factor's column ids.
func (q *querySpec) hypergraphOf() (*hypergraph.Hypergraph, [][]int, []int, error) {
	hb := hypergraph.NewBuilder()
	for i := range q.Factors {
		hb.Edge(q.Factors[i].Attrs...)
	}
	h := hb.Build()
	cols := make([][]int, len(q.Factors))
	for i := range q.Factors {
		for _, a := range q.Factors[i].Attrs {
			cols[i] = append(cols[i], hb.VertexID(a))
		}
	}
	var free []int
	for _, name := range q.Free {
		id := hb.VertexID(name)
		if id < 0 {
			return nil, nil, nil, fmt.Errorf("bench: free variable %q in no factor", name)
		}
		free = append(free, id)
	}
	sort.Ints(free)
	return h, cols, free, nil
}

// shapeKey is the renaming-invariant identity of a shape, used only to
// keep generated shape pools structurally distinct.
func shapeKey(sh shape) (string, error) {
	q := &querySpec{Free: sh.Free}
	for _, e := range sh.Edges {
		q.Factors = append(q.Factors, factorSpec{Attrs: e})
	}
	h, _, free, err := q.hypergraphOf()
	if err != nil {
		return "", err
	}
	fp, err := plan.Canonicalize(h, free, nil)
	if err != nil {
		return "", err
	}
	return fp.Key, nil
}

// randomTree draws a tree of m binary edges (vertex v attaches to a
// uniform earlier vertex) with one uniform free variable.
func randomTree(rng *rand.Rand, m int) shape {
	var sh shape
	for v := 1; v <= m; v++ {
		sh.Edges = append(sh.Edges, []string{fmt.Sprintf("x%d", rng.Intn(v)), fmt.Sprintf("x%d", v)})
	}
	sh.Free = []string{fmt.Sprintf("x%d", rng.Intn(m+1))}
	return sh
}

// triPendant draws a triangle with k pendant edges hung off uniform
// existing vertices; the free variable stays on the triangle so the
// fat root covers it (the paper's F ⊆ V(C(H)) restriction).
func triPendant(rng *rand.Rand, k int) shape {
	sh := shape{Edges: [][]string{{"t0", "t1"}, {"t1", "t2"}, {"t0", "t2"}}}
	verts := []string{"t0", "t1", "t2"}
	for i := 0; i < k; i++ {
		v := fmt.Sprintf("p%d", i)
		sh.Edges = append(sh.Edges, []string{verts[rng.Intn(len(verts))], v})
		verts = append(verts, v)
	}
	sh.Free = []string{fmt.Sprintf("t%d", rng.Intn(3))}
	return sh
}

// shapeClass is one stratum of the plan_churn shape pool: trees of a
// given edge count or tri-pendant variants with a given number of
// pendant edges. weight is the stratum's share of a 256-shape pool,
// chosen below the number of distinct shapes the stratum has (9, 20, 48,
// 114, 285 rooted trees; 2, 6, 15, 41 variants).
type shapeClass struct {
	tri    bool
	size   int
	weight int
}

var shapeClasses = []shapeClass{
	{false, 4, 8}, {false, 5, 16}, {false, 6, 40}, {false, 7, 64}, {false, 8, 96},
	{true, 1, 2}, {true, 2, 4}, {true, 3, 10}, {true, 4, 16},
}

// stratifiedShapes draws count structurally distinct shapes in
// popularity order. Compile cost is wildly uneven across strata — a
// 7-edge tree enumerates 16807 labeled trees, an 8-edge one takes the
// heuristic path — so the strata sizes are fixed and the strata are
// interleaved evenly along the popularity ranks: every seed sees the
// same mix of cheap and dear shapes at every popularity level, and only
// which shapes those are is random.
func stratifiedShapes(rng *rand.Rand, count int) ([]shape, error) {
	sizes := make([]int, len(shapeClasses))
	total := 0
	for c, cl := range shapeClasses {
		sizes[c] = count * cl.weight / 256
		total += sizes[c]
	}
	sizes[4] += count - total // the remainder goes to the largest stratum

	type slot struct {
		pos   float64
		class int
	}
	var slots []slot
	for c, n := range sizes {
		for j := 0; j < n; j++ {
			slots = append(slots, slot{(float64(j) + 0.5) / float64(n), c})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].pos < slots[b].pos })

	seen := map[string]bool{}
	out := make([]shape, 0, count)
	for _, sl := range slots {
		cl := shapeClasses[sl.class]
		for tries := 0; ; tries++ {
			if tries > 5000 {
				return nil, fmt.Errorf("bench: shape stratum %+v exhausted after %d shapes", cl, len(out))
			}
			var sh shape
			if cl.tri {
				sh = triPendant(rng, cl.size)
			} else {
				sh = randomTree(rng, cl.size)
			}
			key, err := shapeKey(sh)
			if err != nil {
				return nil, err
			}
			if !seen[key] {
				seen[key] = true
				out = append(out, sh)
				break
			}
		}
	}
	return out, nil
}

// zipfSequence returns a sequence of the given length over [0,n) in
// which index r occurs a fixed number of times proportional to 1/(r+1)
// (Zipf, s = 1; largest remainders round the counts to the length), in
// seeded random order. Fixing the counts keeps the popularity profile,
// and with it the miss count per pass, the same for every seed.
func zipfSequence(rng *rand.Rand, n, length int) []int {
	h := 0.0
	for r := 0; r < n; r++ {
		h += 1 / float64(r+1)
	}
	counts := make([]int, n)
	type frac struct {
		r int
		f float64
	}
	fracs := make([]frac, n)
	total := 0
	for r := 0; r < n; r++ {
		raw := float64(length) / (h * float64(r+1))
		counts[r] = int(raw)
		total += counts[r]
		fracs[r] = frac{r, raw - float64(counts[r])}
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for i := 0; total < length; i, total = i+1, total+1 {
		counts[fracs[i%n].r]++
	}
	seq := make([]int, 0, length)
	for r, c := range counts {
		for ; c > 0; c-- {
			seq = append(seq, r)
		}
	}
	rng.Shuffle(len(seq), func(a, b int) { seq[a], seq[b] = seq[b], seq[a] })
	return seq
}

// answer is a served or reference result in the façade's shape.
type answer struct {
	Schema []string
	Tuples [][]int
	Values []float64
}

func answerOf(r *faqs.Result) *answer {
	return &answer{Schema: r.Schema, Tuples: r.Tuples, Values: r.Values}
}

// reference is a pre-computed answer plus how to compare against it:
// bit-identical for exact semirings, semiring-Equal for float ones.
type reference struct {
	ans   *answer
	exact bool
}

func floatEqual(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*math.Max(scale, 1)
}

func (ref *reference) matches(got *answer) bool {
	want := ref.ans
	if len(got.Schema) != len(want.Schema) || len(got.Tuples) != len(want.Tuples) || len(got.Values) != len(want.Values) {
		return false
	}
	for i := range want.Schema {
		if got.Schema[i] != want.Schema[i] {
			return false
		}
	}
	for i, t := range want.Tuples {
		if len(got.Tuples[i]) != len(t) {
			return false
		}
		for k := range t {
			if got.Tuples[i][k] != t[k] {
				return false
			}
		}
	}
	for i, v := range want.Values {
		g := got.Values[i]
		if ref.exact {
			if math.Float64bits(g) != math.Float64bits(v) {
				return false
			}
		} else if !floatEqual(g, v) {
			return false
		}
	}
	return true
}

// digest is a stable hash of an answer (generator-determinism tests and
// the result file).
func (a *answer) digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.BigEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(len(a.Schema)))
	for _, s := range a.Schema {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	put(uint64(len(a.Tuples)))
	for _, t := range a.Tuples {
		for _, x := range t {
			put(uint64(x))
		}
	}
	for _, v := range a.Values {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
