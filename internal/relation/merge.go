package relation

import (
	"fmt"
	"slices"

	"repro/internal/semiring"
)

// mergeEdit is where MergeAdd puts one row of b: at is the first row of
// a not below it, listed says a holds the row itself, and sum is the
// row's annotation in the result.
type mergeEdit[T any] struct {
	at     int
	listed bool
	sum    T
}

// MergeAdd returns a ⊕ b pointwise: the relation whose annotation on
// every tuple is s.Add of the operands' annotations (absent tuples are
// zeros, per the listing representation). Both operands must share the
// same schema. Tuples whose merged annotation is the semiring's 0 are
// dropped, preserving the invariant that relations never store
// zero-annotated tuples — so for exact semirings the result is
// bit-identical to rebuilding the combined relation from scratch.
//
// Incremental maintenance (internal/delta) merges with it twice: a
// commit is tail' = MergeAdd(tail, delta) on a view's small tail, and a
// fold is base' = MergeAdd(base, tail) once the tail outgrows √|base|.
// Each row of b is galloped into a from the previous hit,
// O(|b| log(|a|/|b|)) comparisons. When b only moves annotations of rows a already lists
// (nothing inserted, nothing cancelled to 0) the result shares a's row
// buffer and patches a copy of the values, so a SortedIndex of a still
// serves it; otherwise the untouched stretches of a are spliced around
// the edits with copy(), and RebaseIndex carries a's indexes over. a is
// never modified.
func MergeAdd[T any](s semiring.Semiring[T], a, b *Relation[T]) (*Relation[T], error) {
	if !slices.Equal(a.schema, b.schema) {
		return nil, fmt.Errorf("relation: MergeAdd schema mismatch %v vs %v", a.schema, b.schema)
	}
	if b.Len() == 0 {
		return a, nil
	}
	if a.Len() == 0 {
		return b, nil
	}
	w, na := len(a.schema), a.Len()
	edits := make([]mergeEdit[T], b.Len())
	inserts, drops := 0, 0
	for j, lo := 0, 0; j < len(edits); j++ {
		row, e := b.Tuple(j), &edits[j]
		e.at, e.sum = gallopShared(a.rows, w, na, lo, row, w), b.vals[j]
		lo = e.at
		if e.listed = e.at < na && compareShared(a.Tuple(e.at), row, w) == 0; !e.listed {
			inserts++
			continue
		}
		lo++
		if e.sum = s.Add(a.vals[e.at], b.vals[j]); s.IsZero(e.sum) {
			drops++
		}
	}
	if inserts == 0 && drops == 0 {
		vals := append([]T(nil), a.vals...)
		for _, e := range edits {
			vals[e.at] = e.sum
		}
		return &Relation[T]{schema: a.schema, rows: a.rows, vals: vals}, nil
	}
	n := na + inserts - drops
	rows := make([]int32, n*w)
	vals := make([]T, n)
	src, dst := 0, 0 // next row of a to splice, next output row
	for j, e := range edits {
		copy(rows[dst*w:], a.rows[src*w:e.at*w])
		dst += copy(vals[dst:], a.vals[src:e.at])
		if src = e.at; e.listed {
			src++
		}
		if !s.IsZero(e.sum) {
			copy(rows[dst*w:], b.Tuple(j))
			vals[dst] = e.sum
			dst++
		}
	}
	copy(rows[dst*w:], a.rows[src*w:])
	copy(vals[dst:], a.vals[src:])
	return fromSorted(a.schema, rows, vals), nil
}

// LookupRow returns the annotation of the given row (in sorted-schema
// column order) and whether it is listed, by binary search over the
// sorted row buffer — the point probe incremental maintenance uses to
// audit individual delta rows without a scan.
func LookupRow[T any](r *Relation[T], row []int32) (T, bool) {
	var zero T
	w, n := len(r.schema), r.Len()
	if len(row) != w || w == 0 {
		return zero, false
	}
	if i := gallopShared(r.rows, w, n, 0, row, w); i < n && compareShared(r.Tuple(i), row, w) == 0 {
		return r.vals[i], true
	}
	return zero, false
}
