package relation

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/keys"
	"repro/internal/semiring"
)

// Randomized worker-count equivalence harness.
//
// The exec-layer contract says every kernel's output is BIT-identical —
// same schema, same row buffer, same value bytes — at every worker
// count, partition count, and input shape. This file is the reusable
// harness enforcing that: a grid of adversarial key distributions
// (duplicate-heavy, all-equal, one giant group, alternating runs,
// skewed) × input sizes (including empty and singleton) × semirings
// (Boolean, counting, sum-product over floats — whose non-associativity
// under reordering makes bit-identity equivalent to "the exact
// sequential ⊕-order was kept" — and min-plus), driven through the
// public Join and Semijoin at exec.SetWorkers 1/2/8 against the
// nested-loop references. `make test-workers` re-runs the whole suite
// under those worker counts process-wide (FAQ_WORKERS).

// keyDist generates the shared-key column values that decide group
// boundaries — the axis grouping and merging can get wrong.
type keyDist struct {
	name string
	key  func(r *rand.Rand, i, n int) int
}

var keyDists = []keyDist{
	{"uniform-dense", func(r *rand.Rand, i, n int) int { return r.Intn(8) }},
	{"uniform-sparse", func(r *rand.Rand, i, n int) int { return r.Intn(4*n + 8) }},
	{"all-equal", func(r *rand.Rand, i, n int) int { return 7 }},
	{"one-giant-group", func(r *rand.Rand, i, n int) int {
		if r.Intn(10) > 0 {
			return 3
		}
		return 100 + r.Intn(50)
	}},
	{"alternating-runs", func(r *rand.Rand, i, n int) int {
		if i%2 == 0 {
			return 1
		}
		return 2 + i%29
	}},
	{"zipf-skew", func(r *rand.Rand, i, n int) int { return r.Intn(1 << uint(1+r.Intn(9))) }},
	{"sorted-blocks", func(r *rand.Rand, i, n int) int { return i / 4 }},
}

// propSizes includes the empty and singleton edge cases alongside sizes
// that produce multiple non-trivial blocks at every partition count.
var propSizes = []int{0, 1, 2, 7, 63, 200}

// randRelDist builds a relation whose first p columns (the shared join
// prefix) follow dist and whose remaining columns are dense uniform (to
// breed duplicate tuples for the Builder's ⊕-merge).
func randRelDist[T any](s semiring.Semiring[T], r *rand.Rand, schema []int, n, p int,
	dist keyDist, val func(*rand.Rand) T) *Relation[T] {
	b := NewBuilder(s, schema)
	tuple := make([]int, len(schema))
	for i := 0; i < n; i++ {
		for j := range tuple {
			if j < p {
				tuple[j] = dist.key(r, i, n)
			} else {
				tuple[j] = r.Intn(6)
			}
		}
		b.Add(tuple, val(r))
	}
	return b.Build()
}

// mergePairs are the schema shapes dispatching to the sorted-merge path:
// ordered emission, unordered (Builder) emission, and a 2-column prefix.
var mergePairs = []struct {
	name string
	a, b []int
	p    int
}{
	{"ordered-p1", []int{0, 1}, []int{0, 2}, 1},
	{"unordered-p1", []int{0, 3}, []int{0, 2}, 1},
	{"ordered-p2", []int{0, 1, 2}, []int{0, 1, 3}, 2},
	{"contained-p1", []int{0, 1}, []int{0}, 1},
}

// keyOrderPairs share variables that do not lead both schemas, so Join
// and Semijoin put both operands in key order first.
var keyOrderPairs = []struct {
	name string
	a, b []int
}{
	{"ordered-1shared", []int{0, 1}, []int{1, 2}},
	{"ordered-2shared", []int{0, 2, 3}, []int{1, 2, 3}},
	{"ordered-contained", []int{0, 1, 2}, []int{2}},
	{"ordered-3shared", []int{0, 2, 3, 4}, []int{1, 2, 3, 4}},
}

func checkParallelEquivalence[T comparable](t *testing.T, s semiring.Semiring[T], val func(*rand.Rand) T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for _, dist := range keyDists {
		for _, na := range propSizes {
			nb := propSizes[r.Intn(len(propSizes))]
			for _, pair := range mergePairs {
				a := randRelDist(s, r, pair.a, na, pair.p, dist, val)
				b := randRelDist(s, r, pair.b, nb, pair.p, dist, val)
				jWant := joinNestedLoop(s, a, b)
				sjWant := semijoinNestedLoop(a, b, pair.a[:pair.p])
				sweepWorkers(func(w int) {
					if got := Join(s, a, b); !bitIdentical(got, jWant) {
						t.Fatalf("%s/%s na=%d nb=%d workers=%d: merge Join != nested loop\n got=%v\nwant=%v",
							dist.name, pair.name, na, nb, w, got, jWant)
					}
					if got := Semijoin(s, a, b); !bitIdentical(got, sjWant) {
						t.Fatalf("%s/%s na=%d nb=%d workers=%d: merge Semijoin != nested loop",
							dist.name, pair.name, na, nb, w)
					}
				})
			}
			for _, pair := range keyOrderPairs {
				a := randRelDist(s, r, pair.a, na, 1, dist, val)
				b := randRelDist(s, r, pair.b, nb, 1, dist, val)
				checkNonPrefix(t, s, a, b, dist.name+"/"+pair.name)
			}
		}
	}
}

func TestParallelKernelEquivalenceBool(t *testing.T) {
	checkParallelEquivalence[bool](t, semiring.Bool{}, func(r *rand.Rand) bool { return r.Intn(4) > 0 }, 301)
}

func TestParallelKernelEquivalenceCount(t *testing.T) {
	// Values in {-1..3} exercise zero-drop inside duplicate groups.
	checkParallelEquivalence[int64](t, semiring.Count{}, func(r *rand.Rand) int64 { return int64(r.Intn(5)) - 1 }, 302)
}

func TestParallelKernelEquivalenceSumProduct(t *testing.T) {
	// Floats make bit-identity demand the exact sequential ⊕-order.
	checkParallelEquivalence[float64](t, semiring.SumProduct{}, func(r *rand.Rand) float64 { return r.Float64() }, 303)
}

func TestParallelKernelEquivalenceMinPlus(t *testing.T) {
	checkParallelEquivalence[float64](t, semiring.MinPlus{}, func(r *rand.Rand) float64 { return float64(r.Intn(40)) / 8 }, 304)
}

// TestRadixSortPackedMatchesComparison pins the Builder's packed-key
// radix sort against slices.SortFunc by (key, idx) — the order the
// stable sort must reproduce — across the distribution grid plus key
// sets that vary only in the high byte, only in the low byte, not at
// all, and at the Pack2 sign-bias boundary.
func TestRadixSortPackedMatchesComparison(t *testing.T) {
	r := rand.New(rand.NewSource(305))
	cmp := func(p, q packedRow) int {
		if p.key != q.key {
			if p.key < q.key {
				return -1
			}
			return 1
		}
		return int(p.idx) - int(q.idx)
	}
	extremes := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	dists := append(slices.Clone(keyDists),
		keyDist{"high-byte-only", func(r *rand.Rand, i, n int) int { return r.Intn(256) << 56 }},
		keyDist{"low-byte-only", func(r *rand.Rand, i, n int) int { return 0x1234_5600 | r.Intn(256) }},
		keyDist{"pack2-int32-extremes", func(r *rand.Rand, i, n int) int {
			return int(keys.Pack2(extremes[r.Intn(len(extremes))], extremes[r.Intn(len(extremes))]))
		}},
	)
	for _, dist := range dists {
		for _, n := range []int{0, 1, 2, 3, 17, radixMinRows - 1, radixMinRows, 100, 1000, 1 << 15} {
			pr := make([]packedRow, n)
			for i := range pr {
				pr[i] = packedRow{key: uint64(dist.key(r, i, n)), idx: int32(i)}
			}
			want := slices.Clone(pr)
			slices.SortFunc(want, cmp)
			if got := radixSortPacked(slices.Clone(pr)); !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: radix sort != comparison sort", dist.name, n)
			}
		}
	}
}

// TestPublicDispatchWorkerSweep crosses the engage threshold through the
// public Join/Semijoin/Build entry points and pins bit-identity across
// worker counts 1/2/8 for every dispatch shape: merge join (ordered and
// unordered), merge semijoin, non-prefix join and semijoin, and
// Builder.Build.
func TestPublicDispatchWorkerSweep(t *testing.T) {
	s := semiring.SumProduct{}
	r := rand.New(rand.NewSource(306))
	val := func(r *rand.Rand) float64 { return r.Float64() }
	n := parallelMinTuples // a.Len()+b.Len() crosses the threshold
	giant := keyDists[3]   // one-giant-group: the worst case for range cuts

	type op struct {
		name string
		run  func() *Relation[float64]
	}
	aOrd := randRelDist(s, r, []int{0, 1}, n, 1, giant, val)
	bOrd := randRelDist(s, r, []int{0, 2}, n, 1, giant, val)
	aUno := randRelDist(s, r, []int{0, 3}, n, 1, giant, val)
	aKey := randRelDist(s, r, []int{0, 1}, n, 1, giant, val)
	bKey := randRelDist(s, r, []int{1, 2}, n, 1, giant, val)
	ops := []op{
		{"Join/merge-ordered", func() *Relation[float64] { return Join(s, aOrd, bOrd) }},
		{"Join/merge-unordered", func() *Relation[float64] { return Join(s, aUno, bOrd) }},
		{"Semijoin/merge", func() *Relation[float64] { return Semijoin(s, aOrd, bOrd) }},
		{"Join/non-prefix", func() *Relation[float64] { return Join(s, aKey, bKey) }},
		{"Semijoin/non-prefix", func() *Relation[float64] { return Semijoin(s, aKey, bKey) }},
		{"Build", func() *Relation[float64] {
			rr := rand.New(rand.NewSource(307))
			b := NewBuilderHint[float64](s, []int{0, 1}, n)
			for i := 0; i < n; i++ {
				b.Add([]int{giant.key(rr, i, n), rr.Intn(64)}, val(rr))
			}
			return b.Build()
		}},
	}
	for _, o := range ops {
		prev := exec.SetWorkers(1)
		want := o.run()
		var got2, got8 *Relation[float64]
		exec.SetWorkers(2)
		got2 = o.run()
		exec.SetWorkers(8)
		got8 = o.run()
		exec.SetWorkers(prev)
		if want.Len() == 0 {
			t.Fatalf("%s: degenerate test, empty output", o.name)
		}
		if !bitIdentical(got2, want) || !bitIdentical(got8, want) {
			t.Fatalf("%s: multi-worker output not bit-identical to 1-worker", o.name)
		}
	}
}

// FuzzJoinMergeParallel seeds adversarial packed-key layouts — all-equal
// keys, one giant group, alternating runs — and asserts that joins and
// semijoins produce byte-identical output to the nested-loop references.
// The config byte's high bit picks the layout. In the prefix layout the
// key variable leads every schema: the public merge Join, in both the
// ordered and the Builder (unordered) orientation, and Semijoin. In the
// non-prefix layout the key variable trails every schema: the public
// Join, through joinOrdered, and Semijoin.
func FuzzJoinMergeParallel(f *testing.F) {
	f.Add([]byte{3}, bytes.Repeat([]byte{5, 1}, 40))                        // all-equal keys: one giant group on both sides
	f.Add([]byte{7}, bytes.Repeat([]byte{9, 2}, 50))                        // all-equal, another key and payload
	giant := append(bytes.Repeat([]byte{3, 0}, 45), 200, 1, 201, 2, 202, 3) // one giant group plus outliers
	f.Add([]byte{5}, giant)
	alt := make([]byte, 96) // alternating runs: key flips 1/17 every tuple
	for i := 0; i < len(alt); i += 2 {
		if i%4 == 0 {
			alt[i] = 1
		} else {
			alt[i] = 17
		}
		alt[i+1] = byte(i)
	}
	f.Add([]byte{2}, alt)
	f.Add([]byte{6}, []byte{}) // empty operands
	f.Add([]byte{4}, []byte{8, 1})
	f.Add([]byte{0x83}, bytes.Repeat([]byte{5, 1}, 40)) // non-prefix layout, all-equal keys
	f.Add([]byte{0x85}, giant)
	f.Add([]byte{0x82}, alt)

	f.Fuzz(func(t *testing.T, cfg, data []byte) {
		nonPrefix := len(cfg) > 0 && cfg[0]&0x80 != 0
		// Every schema pairs the key variable with one payload variable;
		// the non-prefix layout gives the key the largest id.
		key := 0
		if nonPrefix {
			key = 4
		}
		s := semiring.Count{}
		ba := NewBuilder[int64](s, []int{key, 1}) // ordered orientation vs b
		bu := NewBuilder[int64](s, []int{key, 3}) // unordered orientation vs b
		bb := NewBuilder[int64](s, []int{key, 2})
		for i := 0; i+1 < len(data); i += 2 {
			k, payload := int(data[i])%16, int(data[i+1])%8
			v := int64(data[i+1]%3) - 1 // {-1,0,1}: exercises zero-drop
			switch (i / 2) % 3 {
			case 0:
				ba.Add([]int{k, payload}, v)
			case 1:
				bb.Add([]int{k, payload}, v)
			case 2:
				bu.Add([]int{k, payload}, v)
			}
		}
		a, u, b := ba.Build(), bu.Build(), bb.Build()

		if nonPrefix {
			for _, x := range []*Relation[int64]{a, u} {
				want := joinNestedLoop(s, x, b)
				if got := Join(s, x, b); !bitIdentical(got, want) {
					t.Fatalf("non-prefix Join != nested loop\n got=%v\nwant=%v", got, want)
				}
				if got, want := Semijoin(s, x, b), semijoinNestedLoop(x, b, []int{key}); !bitIdentical(got, want) {
					t.Fatal("non-prefix Semijoin != nested loop")
				}
			}
			return
		}
		if got, want := Join(s, a, b), joinNestedLoop(s, a, b); !bitIdentical(got, want) {
			t.Fatalf("ordered merge Join != nested loop\n got=%v\nwant=%v", got, want)
		}
		if got, want := Join(s, u, b), joinNestedLoop(s, u, b); !bitIdentical(got, want) {
			t.Fatal("unordered merge Join != nested loop")
		}
		if got, want := Semijoin(s, a, b), semijoinNestedLoop(a, b, []int{key}); !bitIdentical(got, want) {
			t.Fatal("merge Semijoin != nested loop")
		}
	})
}
