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

// TestJoinIndexedMatchesJoin checks bit-identity of the indexed probe
// against the one-shot Join on randomized shapes a standing view hits: a
// shared variable trailing big's schema (an index with entries), and one
// leading it (no entries; probed by galloping big's rows) that trails or
// leads the probe's schema. It covers index reuse across value-only
// merges, invalidation on row rewrites, and the rebased index serving the
// rewritten rows.
func TestJoinIndexedMatchesJoin(t *testing.T) {
	s := semiring.Count{}
	rng := rand.New(rand.NewSource(13))
	shapes := []struct{ small, shared []int }{{[]int{2, 3}, []int{2}}, {[]int{0, 1}, []int{1}}, {[]int{1, 3}, []int{1}}}
	for trial := 0; trial < 300; trial++ {
		sh := shapes[trial%len(shapes)]
		big := randRel(rng, s, []int{1, 2}, 10+rng.Intn(60), 8)
		small := randRel(rng, s, sh.small, rng.Intn(4), 8)
		ix := BuildSortedIndex(big, sh.shared)
		if got, want := JoinIndexed(s, small, big, ix), Join(s, small, big); !bitIdentical(got, want) {
			t.Fatalf("trial %d: JoinIndexed diverges from Join", trial)
		}
		if big.Len() > 0 && small.Len() > 0 {
			// A value-only merge keeps the index valid and the results equal.
			db := NewBuilder(s, []int{1, 2})
			db.AddRow(big.Tuple(0), 1)
			patched, err := MergeAdd(s, big, db.Build())
			if err != nil {
				t.Fatal(err)
			}
			if !IndexValidFor(ix, patched, sh.shared) {
				t.Fatalf("trial %d: index invalid after value-only patch", trial)
			}
			if !Equal(s, JoinIndexed(s, small, patched, ix), Join(s, small, patched)) {
				t.Fatalf("trial %d: JoinIndexed diverges after patch", trial)
			}
			// A row-rewriting merge invalidates the index; JoinIndexed
			// falls back rather than serving stale chains.
			db = NewBuilder(s, []int{1, 2})
			db.Add([]int{int(big.Tuple(0)[0]) + 9, 1}, 1)
			gd := db.Build()
			grown, err := MergeAdd(s, big, gd)
			if err != nil {
				t.Fatal(err)
			}
			if IndexValidFor(ix, grown, sh.shared) {
				t.Fatalf("trial %d: index still valid after row rewrite", trial)
			}
			if !Equal(s, JoinIndexed(s, small, grown, ix), Join(s, small, grown)) {
				t.Fatalf("trial %d: stale-index fallback diverges", trial)
			}
			// Carried across the rewrite, the index serves the new rows.
			rix, rebuilt := RebaseIndex(ix, big, gd, grown)
			if rebuilt || !IndexValidFor(rix, grown, sh.shared) {
				t.Fatalf("trial %d: rebased index (rebuilt %v) does not serve the rewritten rows", trial, rebuilt)
			}
			if !bitIdentical(JoinIndexed(s, small, grown, rix), Join(s, small, grown)) {
				t.Fatalf("trial %d: JoinIndexed over a rebased index diverges", trial)
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
