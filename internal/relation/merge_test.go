package relation

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/semiring"
)

// rebuildAdd is the from-scratch oracle: feed every tuple of both
// operands through a fresh Builder and let Build ⊕-merge and drop
// zeros.
func rebuildAdd[T any](s semiring.Semiring[T], a, b *Relation[T]) *Relation[T] {
	bld := NewBuilderHint(s, a.Schema(), a.Len()+b.Len())
	for i := 0; i < a.Len(); i++ {
		bld.AddRow(a.Tuple(i), a.Value(i))
	}
	for i := 0; i < b.Len(); i++ {
		bld.AddRow(b.Tuple(i), b.Value(i))
	}
	return bld.Build()
}

// linearMergeAdd is the element-by-element two-pointer merge of a ⊕ b
// that the splicing MergeAdd replaced, kept as its oracle: one pass over
// both sorted row buffers into fresh storage.
func linearMergeAdd[T any](s semiring.Semiring[T], a, b *Relation[T]) *Relation[T] {
	if b.Len() == 0 {
		return a
	}
	if a.Len() == 0 {
		return b
	}
	w := len(a.schema)
	if w == 0 {
		return Unit(s, s.Add(a.vals[0], b.vals[0]))
	}
	na, nb := a.Len(), b.Len()
	var rows []int32
	var vals []T
	i, j := 0, 0
	for i < na && j < nb {
		ta, tb := a.Tuple(i), b.Tuple(j)
		switch compareShared(ta, tb, w) {
		case -1:
			rows, vals = append(rows, ta...), append(vals, a.vals[i])
			i++
		case 1:
			rows, vals = append(rows, tb...), append(vals, b.vals[j])
			j++
		default:
			if v := s.Add(a.vals[i], b.vals[j]); !s.IsZero(v) {
				rows, vals = append(rows, ta...), append(vals, v)
			}
			i++
			j++
		}
	}
	for ; i < na; i++ {
		rows, vals = append(rows, a.Tuple(i)...), append(vals, a.vals[i])
	}
	for ; j < nb; j++ {
		rows, vals = append(rows, b.Tuple(j)...), append(vals, b.vals[j])
	}
	return fromSorted(a.schema, rows, vals)
}

func TestMergeAddMatchesRebuild(t *testing.T) {
	s := semiring.Count{}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		schema := []int{0, 1, 2}[:1+rng.Intn(3)]
		mk := func(n int) *Relation[int64] {
			b := NewBuilder(s, schema)
			for i := 0; i < n; i++ {
				row := make([]int, len(schema))
				for k := range row {
					row[k] = rng.Intn(5)
				}
				// Values in [-2, 2] so ⊕-merges cancel to exact zero often,
				// exercising the zero-drop path.
				b.Add(row, int64(rng.Intn(5)-2))
			}
			return b.Build()
		}
		a, c := mk(rng.Intn(20)), mk(rng.Intn(20))
		got, err := MergeAdd(s, a, c)
		if err != nil {
			t.Fatal(err)
		}
		want := rebuildAdd(s, a, c)
		if !Equal(s, got, want) {
			t.Fatalf("trial %d: MergeAdd diverges from rebuild: got %v want %v", trial, got, want)
		}
	}
}

// deltaKinds are the shapes of b the splice property covers: a random
// mix of listed and new rows, only cancellations, only new rows, and
// only value moves on listed rows.
var deltaKinds = []string{"mixed", "all-cancel", "all-new", "value-only"}

// deltaFor draws a delta of k rows against a of the given kind. Listed
// rows are picked from a; new rows are drawn until unlisted.
func deltaFor(rng *rand.Rand, s semiring.Count, a *Relation[int64], kind string, k, dom int) *Relation[int64] {
	db := NewBuilder(s, a.Schema())
	picked := rng.Perm(a.Len())
	row := make([]int32, a.Arity())
	for i := 0; i < k; i++ {
		listed := kind == "all-cancel" || kind == "value-only" || (kind == "mixed" && rng.Intn(2) == 0)
		switch {
		case listed && i < len(picked) && kind == "all-cancel":
			db.AddRow(a.Tuple(picked[i]), -a.Value(picked[i]))
		case listed && i < len(picked) && kind == "value-only":
			db.AddRow(a.Tuple(picked[i]), int64(1+rng.Intn(3)))
		case listed && i < len(picked) && rng.Intn(3) == 0:
			db.AddRow(a.Tuple(picked[i]), -a.Value(picked[i]))
		case listed && i < len(picked):
			db.AddRow(a.Tuple(picked[i]), int64(rng.Intn(5)-2))
		case kind == "mixed" || kind == "all-new":
			for tries := 0; tries < 64; tries++ {
				for c := range row {
					row[c] = int32(rng.Intn(dom))
				}
				if _, ok := LookupRow(a, row); !ok || a.Arity() == 0 {
					break
				}
			}
			if _, ok := LookupRow(a, row); !ok || kind == "mixed" {
				db.AddRow(row, int64(1+rng.Intn(3)))
			}
		}
	}
	return db.Build()
}

// sharesRows reports whether r lists its tuples in a's row buffer.
func sharesRows[T any](r, a *Relation[T]) bool {
	return len(r.rows) > 0 && len(a.rows) > 0 && &r.rows[0] == &a.rows[0]
}

// TestMergeAddMatchesLinearOracle pins the splicing MergeAdd bit for bit
// to the linear two-pointer merge over arity 0–4, |b| from 1 to |a|, and
// deltas that are all cancellations, all new rows, or value moves past
// 128 rows; the result shares a's rows exactly when the merge inserts
// and drops nothing.
func TestMergeAddMatchesLinearOracle(t *testing.T) {
	s := semiring.Count{}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 600; trial++ {
		arity := trial % 5
		schema := []int{0, 1, 2, 3}[:arity]
		kind := deltaKinds[(trial/5)%len(deltaKinds)]
		n := 1 + rng.Intn(40)
		dom := 3 + rng.Intn(6)
		if kind == "value-only" && arity >= 2 && trial%3 == 0 {
			n, dom = 150+rng.Intn(300), 64
		}
		a := randRel(rng, s, schema, n, dom)
		d := deltaFor(rng, s, a, kind, 1+rng.Intn(max(a.Len(), 1)), dom)
		got, err := MergeAdd(s, a, d)
		if err != nil {
			t.Fatal(err)
		}
		want := linearMergeAdd(s, a, d)
		if !bitIdentical(got, want) {
			t.Fatalf("trial %d (%s, arity %d): MergeAdd diverges from the linear merge\n got=%v %v\nwant=%v %v",
				trial, kind, arity, got.rows, got.vals, want.rows, want.vals)
		}
		if !Equal(s, got, rebuildAdd(s, a, d)) {
			t.Fatalf("trial %d: MergeAdd diverges from rebuild", trial)
		}
		if arity > 0 && a.Len() > 0 && d.Len() > 0 {
			if unchanged := slices.Equal(want.rows, a.rows); sharesRows(got, a) != unchanged {
				t.Fatalf("trial %d (%s): shares rows = %v, want %v", trial, kind, sharesRows(got, a), unchanged)
			}
		}
		if kind == "value-only" && d.Len() > 128 && !sharesRows(got, a) {
			t.Fatalf("trial %d: a %d-row value-only delta must share rows", trial, d.Len())
		}
	}
}

// TestMergeAddSharesRows pins the value-only contract: when the delta
// only moves annotations of listed tuples, the result reuses a's row
// buffer (what keeps SortedIndexes valid) and a itself is unchanged; a
// cancellation drops the tuple into fresh rows.
func TestMergeAddSharesRows(t *testing.T) {
	s := semiring.Count{}
	b := NewBuilder(s, []int{0, 1})
	b.Add([]int{1, 2}, 5)
	b.Add([]int{3, 4}, 7)
	a := b.Build()

	db := NewBuilder(s, []int{0, 1})
	db.Add([]int{3, 4}, -2)
	got, err := MergeAdd(s, a, db.Build())
	if err != nil {
		t.Fatal(err)
	}
	if !sharesRows(got, a) {
		t.Fatal("a value-only merge must share the row buffer")
	}
	if v, _ := LookupRow(got, []int32{3, 4}); v != 5 {
		t.Fatalf("patched value = %d, want 5", v)
	}
	if v, _ := LookupRow(a, []int32{3, 4}); v != 7 {
		t.Fatalf("input mutated: value = %d, want 7", v)
	}

	// A delete to exact zero must drop the tuple, not list it.
	db = NewBuilder(s, []int{0, 1})
	db.Add([]int{3, 4}, -5)
	got2, err := MergeAdd(s, got, db.Build())
	if err != nil {
		t.Fatal(err)
	}
	if got2.Len() != 1 || sharesRows(got2, got) {
		t.Fatalf("zero-cancelled tuple still listed or rows shared: %v", got2)
	}
	// a ⊕ a moves every value and keeps every row.
	got3, err := MergeAdd(s, a, a)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := LookupRow(got3, []int32{1, 2}); v != 10 || !sharesRows(got3, a) {
		t.Fatalf("a ⊕ a value = %d, shares rows %v; want 10, true", v, sharesRows(got3, a))
	}
}

func TestMergeAddScalarAndEmpty(t *testing.T) {
	s := semiring.Count{}
	u3 := Unit(s, int64(3))
	um3 := Unit(s, int64(-3))
	sum, err := MergeAdd(s, u3, um3)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Len() != 0 {
		t.Fatalf("3 ⊕ -3 should cancel to the empty scalar, got len %d", sum.Len())
	}
	empty := Empty[int64]([]int{0, 1})
	b := NewBuilder(s, []int{0, 1})
	b.Add([]int{1, 2}, 5)
	r := b.Build()
	if got, err := MergeAdd(s, empty, r); err != nil || !Equal(s, got, r) {
		t.Fatalf("empty ⊕ r != r (err %v)", err)
	}
	if got, err := MergeAdd(s, r, empty); err != nil || !Equal(s, got, r) {
		t.Fatalf("r ⊕ empty != r (err %v)", err)
	}
	if _, err := MergeAdd(s, r, Empty[int64]([]int{0})); err == nil {
		t.Fatal("schema mismatch must error")
	}
}

func TestLookupRow(t *testing.T) {
	s := semiring.Count{}
	b := NewBuilder(s, []int{0, 1})
	b.Add([]int{1, 2}, 5)
	b.Add([]int{3, 1}, 7)
	b.Add([]int{0, 0}, 2)
	r := b.Build()
	if v, ok := LookupRow(r, []int32{3, 1}); !ok || v != 7 {
		t.Fatalf("LookupRow(3,1) = %d,%v want 7,true", v, ok)
	}
	if v, ok := LookupRow(r, []int32{0, 0}); !ok || v != 2 {
		t.Fatalf("LookupRow(0,0) = %d,%v want 2,true", v, ok)
	}
	if _, ok := LookupRow(r, []int32{2, 2}); ok {
		t.Fatal("LookupRow on an unlisted tuple must report false")
	}
	if _, ok := LookupRow(r, []int32{1}); ok {
		t.Fatal("LookupRow with wrong arity must report false")
	}
}

// subsets lists every non-empty subset of schema, each sorted.
func subsets(schema []int) [][]int {
	var out [][]int
	for m := 1; m < 1<<len(schema); m++ {
		var sub []int
		for i, v := range schema {
			if m&(1<<i) != 0 {
				sub = append(sub, v)
			}
		}
		out = append(out, sub)
	}
	return out
}

// checkRebase carries a's index on shared over a ⊕ d and compares it
// entry for entry with an index built on the merge from scratch. The
// carry path must run: a rebase that falls back to a fresh build fails.
func checkRebase(t *testing.T, s semiring.Count, a, d *Relation[int64], shared []int, label string) {
	t.Helper()
	nw, err := MergeAdd(s, a, d)
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildSortedIndex(a, shared)
	got, rebuilt := RebaseIndex(ix, a, d, nw)
	want := BuildSortedIndex(nw, shared)
	switch {
	case rebuilt:
		t.Fatalf("%s: rebase fell back to a fresh build", label)
	case ix == nil:
		if got != nil {
			t.Fatalf("%s: rebasing a nil index must give nil", label)
		}
	case (got == nil) != (want == nil):
		t.Fatalf("%s: rebased index nil = %v, built nil = %v", label, got == nil, want == nil)
	case want == nil:
	case !IndexValidFor(got, nw, shared):
		t.Fatalf("%s: rebased index is not pinned to the merged rows", label)
	case (got.order == nil) != (want.order == nil):
		t.Fatalf("%s: rebased index has entries = %v, built = %v", label, got.order != nil, want.order != nil)
	case want.order == nil:
	case !slices.Equal(got.order.pr, want.order.pr) || !slices.Equal(got.order.cols, want.order.cols):
		t.Fatalf("%s: rebased index diverges from a fresh build\n got=%v\nwant=%v", label, got.order.pr, want.order.pr)
	}
}

// TestRebaseIndexMatchesBuild pins RebaseIndex ≡ BuildSortedIndex on the
// merged relation for every key subset of arity 1–4 schemas and every
// delta kind, including keys wider than keys.MaxPacked whose packed heads
// collide (the first two columns take only two values), so entries tie
// on the head and are ordered by the tail columns and row position.
func TestRebaseIndexMatchesBuild(t *testing.T) {
	s := semiring.Count{}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		arity := 1 + trial%4
		schema := []int{0, 1, 2, 3}[:arity]
		kind := deltaKinds[(trial/4)%len(deltaKinds)]
		dom := 2 + rng.Intn(5)
		var a *Relation[int64]
		if arity >= 3 && trial%2 == 0 {
			a = randRelCols(rng, s, schema, 5+rng.Intn(60), []int{2, 2, 9, 9})
		} else {
			a = randRel(rng, s, schema, rng.Intn(50), dom)
		}
		d := deltaFor(rng, s, a, kind, 1+rng.Intn(max(a.Len(), 1)), dom)
		for _, shared := range subsets(schema) {
			checkRebase(t, s, a, d, shared, kind)
		}
	}
	// An index of another relation misses the preconditions: RebaseIndex
	// builds afresh and says so.
	a := randRel(rng, s, []int{0, 1}, 40, 9)
	d := deltaFor(rng, s, a, deltaKinds[0], 5, 9)
	nw, err := MergeAdd(s, a, d)
	if err != nil {
		t.Fatal(err)
	}
	other := randRel(rng, s, []int{0, 1}, 40, 9)
	got, rebuilt := RebaseIndex(BuildSortedIndex(other, []int{1}), a, d, nw)
	if want := BuildSortedIndex(nw, []int{1}); !rebuilt || !slices.Equal(got.order.pr, want.order.pr) {
		t.Fatalf("foreign index: rebuilt = %v, equal to a fresh build = %v", rebuilt, slices.Equal(got.order.pr, want.order.pr))
	}
}

// randRelCols draws n tuples with column c drawn from [0, doms[c]).
func randRelCols(rng *rand.Rand, s semiring.Count, schema []int, n int, doms []int) *Relation[int64] {
	b := NewBuilder(s, schema)
	row := make([]int, len(schema))
	for i := 0; i < n; i++ {
		for c := range row {
			row[c] = rng.Intn(doms[c])
		}
		b.Add(row, int64(1+rng.Intn(3)))
	}
	return b.Build()
}

// FuzzMergeAddRebase fuzzes the commit path of a standing view. The first
// byte picks the arity (0–4) and how many of the following rows belong to
// a; every group of arity+1 bytes is one row (coordinates in [0, 4)) and
// its annotation. MergeAdd must match the linear merge bit for bit and
// share a's rows exactly when it inserts and drops nothing, and every
// index of a, rebased onto the merge, must equal a fresh build.
func FuzzMergeAddRebase(f *testing.F) {
	f.Add([]byte{0x22, 1, 1, 1, 2, 2, 1, 1, 1, 0xff})
	f.Add([]byte{0x13, 0, 1, 1, 2, 1, 3, 1, 4, 0xfd, 5, 1})
	f.Add([]byte{0x44, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 0, 0, 1, 1, 2, 0, 0, 0, 0, 0xff})
	f.Add([]byte{0x30, 0, 2})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		arity, na := int(data[0]&7)%5, int(data[0]>>3)
		data = data[1:]
		schema := []int{0, 1, 2, 3}[:arity]
		s := semiring.Count{}
		ab, db := NewBuilder(s, schema), NewBuilder(s, schema)
		row := make([]int32, arity)
		for i := 0; i+arity < len(data); i += arity + 1 {
			for c := range row {
				row[c] = int32(data[i+c] & 3)
			}
			val := int64(int8(data[i+arity])) % 4
			if i/(arity+1) < na {
				ab.AddRow(row, val)
			} else {
				db.AddRow(row, val)
			}
		}
		a, d := ab.Build(), db.Build()
		got, err := MergeAdd(s, a, d)
		if err != nil {
			t.Fatal(err)
		}
		want := linearMergeAdd(s, a, d)
		if !bitIdentical(got, want) {
			t.Fatalf("MergeAdd diverges from the linear merge\n got=%v %v\nwant=%v %v", got.rows, got.vals, want.rows, want.vals)
		}
		if arity > 0 && a.Len() > 0 && d.Len() > 0 && sharesRows(got, a) != slices.Equal(want.rows, a.rows) {
			t.Fatalf("shares rows = %v with rows %v → %v", sharesRows(got, a), a.rows, want.rows)
		}
		for _, shared := range subsets(schema) {
			checkRebase(t, s, a, d, shared, "fuzz")
		}
	})
}

// TestMergeReplaceAndRestrict checks MergeReplace against a rebuild
// from its definition (a's rows d does not list, then d's rows whose
// annotation is not a deletion), RebaseIndex across it against a fresh
// build, and Restrict, through an index and without one, against a
// filter of b's rows on every subset of the schema.
func TestMergeReplaceAndRestrict(t *testing.T) {
	s := semiring.Count{}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		arity := 1 + trial%3
		schema := []int{0, 1, 2}[:arity]
		dom := 2 + rng.Intn(4)
		a := randRel(rng, s, schema, rng.Intn(30), dom)
		// d overwrites, inserts and deletes (annotation 0) rows; a
		// deletion of a row a does not list is dropped from d, as
		// RebaseIndex requires.
		edit := randRel(rng, s, schema, rng.Intn(8), dom)
		var drows []int32
		var dvals []int64
		for i := 0; i < edit.Len(); i++ {
			_, listed := LookupRow(a, edit.Tuple(i))
			v := edit.Value(i)
			if listed && rng.Intn(3) == 0 {
				v = 0
			} else if !listed && v == 2 {
				continue
			}
			drows, dvals = append(drows, edit.Tuple(i)...), append(dvals, v)
		}
		d := fromSorted(a.schema, drows, dvals)
		got, err := MergeReplace(a, d, s.IsZero)
		if err != nil {
			t.Fatal(err)
		}
		want := NewBuilder(s, schema)
		for i := 0; i < a.Len(); i++ {
			if _, ok := LookupRow(d, a.Tuple(i)); !ok {
				want.AddRow(a.Tuple(i), a.Value(i))
			}
		}
		for i := 0; i < d.Len(); i++ {
			want.AddRow(d.Tuple(i), d.Value(i))
		}
		if w := want.Build(); !Equal(s, got, w) {
			t.Fatalf("trial %d: MergeReplace = %v rows, want %v", trial, got.Len(), w.Len())
		}
		for _, shared := range subsets(schema) {
			if len(shared) == 0 {
				continue
			}
			if ix := BuildSortedIndex(a, shared); ix != nil {
				nix, rebuilt := RebaseIndex(ix, a, d, got)
				if fresh := BuildSortedIndex(got, shared); rebuilt || (nix == nil) != (fresh == nil) ||
					nix != nil && nix.order != nil && !slices.Equal(nix.order.pr, fresh.order.pr) {
					t.Fatalf("trial %d: index on %v not carried across MergeReplace (rebuilt %v)", trial, shared, rebuilt)
				}
			}
			keys := randRel(rng, semiring.Count{}, shared, rng.Intn(4), dom)
			filter := NewBuilder(s, schema)
			cols, _ := Columns(schema, shared)
			for i := 0; i < got.Len(); i++ {
				key := make([]int32, len(cols))
				for k, c := range cols {
					key[k] = got.Tuple(i)[c]
				}
				if _, ok := LookupRow(keys, key); ok {
					filter.AddRow(got.Tuple(i), got.Value(i))
				}
			}
			w := filter.Build()
			for _, ix := range []*SortedIndex{nil, BuildSortedIndex(got, shared)} {
				if r := Restrict(got, keys, ix); !Equal(s, r, w) {
					t.Fatalf("trial %d: Restrict on %v lists %d rows, want %d", trial, shared, r.Len(), w.Len())
				}
			}
		}
	}
}
