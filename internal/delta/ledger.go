package delta

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/relation"
	"repro/internal/semiring"
)

// stage applies one batch to the contribution ledger lg of its edge,
// whose factor is base overridden by tail. Every insert appends a contribution to its tuple's
// multiset, then every delete removes the first semiring-equal
// contribution of its tuple, or fails with ErrNoSuchTuple when none is
// listed. It returns the staged ledger and the touched tuples, sorted,
// each annotated with its new multiset (empty when drained).
//
// A ledger is the recompute strategy's record of what the factor alone
// cannot answer: idempotent ⊕ (min, max) destroys information, so a
// factor annotation does not tell what remains after deleting one
// contribution. A tuple's contributions are the multiset of values
// inserted for it, in insertion order, and the factor lists it at their
// ⊕-fold. The ledger is a relation over the edge's schema that lists
// only the tuples the factor cannot stand for: those with two or more
// live contributions, and those with one whose annotation is the
// semiring's 0 (the factor omits it). A tuple with one non-zero
// contribution is its factor row, and a tuple with none is listed
// nowhere, so the ledger never outgrows the live contributions and
// starts empty (each listed tuple of the materialized relation is one
// contribution, its merged annotation).
//
// Neither lg nor the factor is modified: the staged ledger is a
// relation.MergeReplace of the touched entries, found by gallop, which
// the handle commits with the factors and messages, and a touched
// multiset is clipped before it changes, so the change copies it.
func stage[T any](s semiring.Semiring[T], lg *relation.Relation[[]T], base, tail *relation.Relation[T], b Batch[T]) (*relation.Relation[[]T], *relation.Relation[[]T], error) {
	keys := relation.NewBuilderHint(semiring.Bool{}, lg.Schema(), len(b.Inserts)+len(b.Deletes))
	row := make([]int32, lg.Arity())
	for _, ts := range [...][]Tuple[T]{b.Inserts, b.Deletes} {
		for _, t := range ts {
			keys.AddRow(rowOf(row, t.Row), true)
		}
	}
	touched := keys.Build()
	sets := make([][]T, touched.Len())
	for i := range sets {
		if ms, ok := relation.LookupRow(lg, touched.Tuple(i)); ok {
			sets[i] = slices.Clip(ms)
		} else if v, ok := overridden(s, touched.Tuple(i), base, tail); ok {
			sets[i] = []T{v}
		}
	}
	for _, t := range b.Inserts {
		i := find(touched, rowOf(row, t.Row))
		sets[i] = append(sets[i], t.Val)
	}
	for _, t := range b.Deletes {
		i := find(touched, rowOf(row, t.Row))
		j := slices.IndexFunc(sets[i], func(v T) bool { return s.Equal(v, t.Val) })
		if j < 0 {
			return nil, nil, fmt.Errorf("delta: tuple %v value %s on edge %d: %w", t.Row, s.Format(t.Val), b.Edge, ErrNoSuchTuple)
		}
		sets[i] = append(sets[i][:j:j], sets[i][j+1:]...)
	}
	listed := relation.Relabel(touched, func(i int) []T {
		if ms := sets[i]; len(ms) > 1 || len(ms) == 1 && s.IsZero(ms[0]) {
			return ms
		}
		return nil
	})
	next, err := relation.MergeReplace(lg, listed, func(ms []T) bool { return len(ms) == 0 })
	return next, relation.Relabel(touched, func(i int) []T { return sets[i] }), err
}

// fold returns the ⊕-fold of a multiset in insertion order, the
// semiring's 0 when it is empty.
func fold[T any](s semiring.Semiring[T], ms []T) T {
	if len(ms) == 0 {
		return s.Zero()
	}
	v := ms[0]
	for _, w := range ms[1:] {
		v = s.Add(v, w)
	}
	return v
}

// rowOf writes a batch tuple into row as int32s and returns row.
func rowOf(row []int32, t []int) []int32 {
	for i, x := range t {
		row[i] = int32(x)
	}
	return row
}

// find returns the position of row in r, which lists it.
func find[U any](r *relation.Relation[U], row []int32) int {
	return sort.Search(r.Len(), func(i int) bool { return slices.Compare(r.Tuple(i), row) >= 0 })
}
