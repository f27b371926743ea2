package relation

import (
	"fmt"
	"slices"

	"repro/internal/semiring"
)

// mergeEdit is where a merge puts one row of b: at is the first row of
// a not below it, listed says a holds the row itself, and sum and keep
// are the row's annotation in the result and whether it is listed there.
type mergeEdit[T any] struct {
	at     int
	listed bool
	sum    T
	keep   bool
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
	return splice(a, b, func(j int, av T, listed bool) (T, bool) {
		if !listed {
			return b.vals[j], true
		}
		sum := s.Add(av, b.vals[j])
		return sum, !s.IsZero(sum)
	}), nil
}

// MergeReplace returns a with the rows of d written over it: a row of d
// replaces a's annotation of the row, or inserts the row when a does not
// list it, and a row whose d annotation drop reports deletes a's row (or
// is no edit, when a does not list it). Both operands must share the
// same schema, and d is an edit list: Relabel builds one, with whatever
// annotation marks a deletion. It gallops and splices exactly as
// MergeAdd, so a result that only moved annotations shares a's row
// buffer, and RebaseIndex carries a's indexes over any other result
// when d lists no deletion of a row a does not list. a is never
// modified.
//
// Incremental maintenance merges with it where ⊕ has no inverse
// (internal/delta's recompute strategy): the re-folded tuples of a
// factor and the recomputed groups of a message into their tails, a
// tail into its base when it folds, and the contribution ledger's
// changed entries.
func MergeReplace[T any](a, d *Relation[T], drop func(T) bool) (*Relation[T], error) {
	if !slices.Equal(a.schema, d.schema) {
		return nil, fmt.Errorf("relation: MergeReplace schema mismatch %v vs %v", a.schema, d.schema)
	}
	if d.Len() == 0 {
		return a, nil
	}
	return splice(a, d, func(j int, _ T, _ bool) (T, bool) {
		return d.vals[j], !drop(d.vals[j])
	}), nil
}

// splice merges b's rows into a, whose schema it shares: edit gives the
// result's annotation of b's row j, and whether the row stays listed,
// from a's annotation of the row when listed says a lists it. Each row
// of b is galloped into a from the previous hit. When no row is
// inserted or dropped the result shares a's row buffer; otherwise the
// untouched stretches of a are copied around the edits.
func splice[T any](a, b *Relation[T], edit func(j int, av T, listed bool) (T, bool)) *Relation[T] {
	w, na := len(a.schema), a.Len()
	edits := make([]mergeEdit[T], b.Len())
	inserts, drops := 0, 0
	for j, lo := 0, 0; j < len(edits); j++ {
		row, e := b.Tuple(j), &edits[j]
		e.at = gallopShared(a.rows, w, na, lo, row, w)
		lo = e.at
		var av T
		if e.listed = e.at < na && compareShared(a.Tuple(e.at), row, w) == 0; e.listed {
			av = a.vals[e.at]
			lo++
		}
		e.sum, e.keep = edit(j, av, e.listed)
		switch {
		case e.listed && !e.keep:
			drops++
		case !e.listed && e.keep:
			inserts++
		}
	}
	if inserts == 0 && drops == 0 {
		vals := append([]T(nil), a.vals...)
		for _, e := range edits {
			if e.listed {
				vals[e.at] = e.sum
			}
		}
		return &Relation[T]{schema: a.schema, rows: a.rows, vals: vals}
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
		if e.keep {
			copy(rows[dst*w:], b.Tuple(j))
			vals[dst] = e.sum
			dst++
		}
	}
	copy(rows[dst*w:], a.rows[src*w:])
	copy(vals[dst:], a.vals[src:])
	return fromSorted(a.schema, rows, vals)
}

// Relabel returns r's rows annotated by val, val(i) on row i. The result
// shares r's row buffer, so an index of r serves it too. It keeps every
// annotation val gives, zeros included: besides re-typing a relation's
// listing (a Bool view of a support count), it builds MergeReplace's
// edit lists.
func Relabel[T, U any](r *Relation[U], val func(i int) T) *Relation[T] {
	vals := make([]T, r.Len())
	for i := range vals {
		vals[i] = val(i)
	}
	return &Relation[T]{schema: r.schema, rows: r.rows, vals: vals, lo: r.lo, hi: r.hi, ranged: r.ranged}
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
