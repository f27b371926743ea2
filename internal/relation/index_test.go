package relation

import (
	"math/rand"
	"testing"

	"repro/internal/semiring"
)

func randRel(rng *rand.Rand, s semiring.Count, schema []int, n, dom int) *Relation[int64] {
	b := NewBuilder(s, schema)
	for i := 0; i < n; i++ {
		row := make([]int, len(schema))
		for k := range row {
			row[k] = rng.Intn(dom)
		}
		b.Add(row, int64(1+rng.Intn(3)))
	}
	return b.Build()
}

// TestPatchAddMatchesMergeAdd drives randomized a ⊕ b through both
// kernels; PatchAdd must be bit-identical to MergeAdd whether it takes
// the fast path or falls back.
func TestPatchAddMatchesMergeAdd(t *testing.T) {
	s := semiring.Count{}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		schema := []int{0, 1, 2}[:1+rng.Intn(3)]
		a := randRel(rng, s, schema, 5+rng.Intn(30), 6)
		db := NewBuilder(s, schema)
		for i := 0; i < rng.Intn(6); i++ {
			if a.Len() > 0 && rng.Intn(2) == 0 {
				// Touch an existing tuple (fast-path candidate); sometimes
				// cancel it to zero (forced fallback).
				j := rng.Intn(a.Len())
				v := int64(1)
				if rng.Intn(3) == 0 {
					v = -a.Value(j)
				}
				db.AddRow(a.Tuple(j), v)
			} else {
				row := make([]int, len(schema))
				for k := range row {
					row[k] = rng.Intn(6)
				}
				db.Add(row, int64(rng.Intn(5)-2))
			}
		}
		d := db.Build()
		want, err := MergeAdd(s, a, d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PatchAdd(s, a, d, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(s, got, want) {
			t.Fatalf("trial %d: PatchAdd diverges from MergeAdd", trial)
		}
	}
}

// TestPatchAddSharesRows pins the fast path's contract: when the delta
// only moves annotations of listed tuples, the result reuses a's row
// buffer (what keeps SortedIndexes valid) and a itself is unchanged.
func TestPatchAddSharesRows(t *testing.T) {
	s := semiring.Count{}
	b := NewBuilder(s, []int{0, 1})
	b.Add([]int{1, 2}, 5)
	b.Add([]int{3, 4}, 7)
	a := b.Build()

	db := NewBuilder(s, []int{0, 1})
	db.Add([]int{3, 4}, -2)
	got, err := PatchAdd(s, a, db.Build(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if &got.rows[0] != &a.rows[0] {
		t.Fatal("fast path must share the row buffer")
	}
	if v, _ := LookupRow(got, []int32{3, 4}); v != 5 {
		t.Fatalf("patched value = %d, want 5", v)
	}
	if v, _ := LookupRow(a, []int32{3, 4}); v != 7 {
		t.Fatalf("input mutated: value = %d, want 7", v)
	}

	// A delete to exact zero must drop the tuple (fallback), not list it.
	db = NewBuilder(s, []int{0, 1})
	db.Add([]int{3, 4}, -5)
	got2, err := PatchAdd(s, got, db.Build(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Len() != 1 {
		t.Fatalf("zero-cancelled tuple still listed: %v", got2)
	}
	// Over the budget: falls back to MergeAdd, same answer.
	got3, err := PatchAdd(s, a, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := LookupRow(got3, []int32{1, 2}); v != 10 {
		t.Fatalf("fallback merge value = %d, want 10", v)
	}
}

// TestJoinIndexedMatchesJoin checks bit-identity of the indexed probe
// against the one-shot Join on randomized non-prefix-shared schemas
// (the shapes a standing view hits), including index reuse across
// PatchAdd value updates and invalidation on row rewrites.
func TestJoinIndexedMatchesJoin(t *testing.T) {
	s := semiring.Count{}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		// Shared variable 2 trails big's schema {1,2}: Join must take
		// the non-prefix path.
		big := randRel(rng, s, []int{1, 2}, 10+rng.Intn(60), 8)
		small := randRel(rng, s, []int{2, 3}, rng.Intn(4), 8)
		ix := BuildSortedIndex(big, []int{2})
		got := JoinIndexed(s, small, big, ix)
		want := Join(s, small, big)
		if !Equal(s, got, want) {
			t.Fatalf("trial %d: JoinIndexed diverges from Join", trial)
		}
		if big.Len() > 0 && small.Len() > 0 {
			// Value-only patch keeps the index valid and the results equal.
			db := NewBuilder(s, []int{1, 2})
			db.AddRow(big.Tuple(0), 1)
			patched, err := PatchAdd(s, big, db.Build(), 64)
			if err != nil {
				t.Fatal(err)
			}
			if !IndexValidFor(ix, patched, []int{2}) {
				t.Fatalf("trial %d: index invalid after value-only patch", trial)
			}
			if !Equal(s, JoinIndexed(s, small, patched, ix), Join(s, small, patched)) {
				t.Fatalf("trial %d: JoinIndexed diverges after patch", trial)
			}
			// A row-rewriting merge invalidates the index; JoinIndexed
			// falls back rather than serving stale chains.
			db = NewBuilder(s, []int{1, 2})
			db.Add([]int{int(big.Tuple(0)[0]) + 9, 1}, 1)
			grown, err := MergeAdd(s, big, db.Build())
			if err != nil {
				t.Fatal(err)
			}
			if IndexValidFor(ix, grown, []int{2}) {
				t.Fatalf("trial %d: index still valid after row rewrite", trial)
			}
			if !Equal(s, JoinIndexed(s, small, grown, ix), Join(s, small, grown)) {
				t.Fatalf("trial %d: stale-index fallback diverges", trial)
			}
		}
	}
}

// TestBuildSortedIndexNilCases pins the nil cases — no shared
// variable, empty relation — which JoinIndexed must survive by falling
// back, and checks that a key wider than the packed head is indexed and
// joins like Join.
func TestBuildSortedIndexNilCases(t *testing.T) {
	s := semiring.Count{}
	r := randRel(rand.New(rand.NewSource(3)), s, []int{0, 1, 2}, 10, 4)
	if BuildSortedIndex(r, nil) != nil {
		t.Fatal("empty key must not index")
	}
	if BuildSortedIndex(Empty[int64](r.Schema()), []int{0}) != nil {
		t.Fatal("empty relation must not index")
	}
	small := randRel(rand.New(rand.NewSource(4)), s, []int{2, 3}, 3, 4)
	if !Equal(s, JoinIndexed(s, small, r, nil), Join(s, small, r)) {
		t.Fatal("nil-index fallback diverges from Join")
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		big := randRel(rng, s, []int{0, 1, 2, 3}, 20+rng.Intn(80), 3)
		probe := randRel(rng, s, []int{1, 2, 3, 4}, rng.Intn(10), 3)
		ix := BuildSortedIndex(big, []int{1, 2, 3})
		if ix == nil {
			t.Fatal("wide key must index")
		}
		if got, want := JoinIndexed(s, probe, big, ix), Join(s, probe, big); !bitIdentical(got, want) {
			t.Fatalf("trial %d: wide-key JoinIndexed diverges from Join\n got=%v\nwant=%v", trial, got, want)
		}
	}
}
