package delta

import (
	"maps"
	"slices"

	"repro/internal/keys"
	"repro/internal/relation"
	"repro/internal/semiring"
)

// ledger is the per-edge contribution multiset of the recompute
// strategy: idempotent ⊕ (min, max) destroys information, so the
// factor annotation alone cannot answer "what remains after deleting
// this contribution?". Each listed tuple keeps the full multiset of
// values inserted for it; the factor is rebuilt by ⊕-folding each
// tuple's contributions. The pre-existing relation seeds one
// contribution per listed tuple (its merged annotation).
//
// entries is the iteration source (insertion order, deterministic);
// index is lookup-only, so the mapiter determinism contract holds.
type ledger[T any] struct {
	index   map[string]int
	entries []ledgerEntry[T]
}

type ledgerEntry[T any] struct {
	row  []int32
	vals []T // contribution multiset, insertion order
}

// ledgerOf seeds a ledger from an existing relation.
func ledgerOf[T any](f *relation.Relation[T]) *ledger[T] {
	lg := &ledger[T]{index: make(map[string]int, f.Len())}
	for i := 0; i < f.Len(); i++ {
		row := append([]int32(nil), f.Tuple(i)...)
		lg.index[keys.EncodeCols(row, nil)] = len(lg.entries)
		lg.entries = append(lg.entries, ledgerEntry[T]{row: row, vals: []T{f.Value(i)}})
	}
	return lg
}

// clone copies the ledger for copy-on-write staging: a failed update
// must leave the committed ledger untouched. Rows are immutable and
// shared. Each contribution list is shared with its capacity clipped to
// its length, so insert's append and remove's splice always write a
// fresh array and never reach the committed ledger's.
func (lg *ledger[T]) clone() *ledger[T] {
	out := &ledger[T]{index: maps.Clone(lg.index), entries: slices.Clone(lg.entries)}
	for i := range out.entries {
		out.entries[i].vals = slices.Clip(out.entries[i].vals)
	}
	return out
}

func rowOf(t []int) []int32 {
	row := make([]int32, len(t))
	for i, x := range t {
		row[i] = int32(x)
	}
	return row
}

// insert appends one contribution for the tuple.
func (lg *ledger[T]) insert(t []int, val T) {
	row := rowOf(t)
	k := keys.EncodeCols(row, nil)
	if i, ok := lg.index[k]; ok {
		lg.entries[i].vals = append(lg.entries[i].vals, val)
		return
	}
	lg.index[k] = len(lg.entries)
	lg.entries = append(lg.entries, ledgerEntry[T]{row: row, vals: []T{val}})
}

// remove deletes one semiring-equal contribution of the tuple,
// reporting false when none is listed. Emptied entries remain as
// tombstones (build skips them); the index stays intact.
func (lg *ledger[T]) remove(s semiring.Semiring[T], t []int, val T) bool {
	row := rowOf(t)
	i, ok := lg.index[keys.EncodeCols(row, nil)]
	if !ok {
		return false
	}
	vals := lg.entries[i].vals
	for j, v := range vals {
		if s.Equal(v, val) {
			lg.entries[i].vals = append(vals[:j:j], vals[j+1:]...)
			return true
		}
	}
	return false
}

// build rebuilds the factor: one row per tuple with a non-empty
// contribution multiset, annotated with the ⊕-fold of its
// contributions (Build re-sorts and drops ⊕-zeros, so the result is
// exactly what a from-scratch Builder over the same contributions
// produces).
func (lg *ledger[T]) build(s semiring.Semiring[T], schema []int) *relation.Relation[T] {
	b := relation.NewBuilderHint(s, schema, len(lg.entries))
	for _, e := range lg.entries {
		if len(e.vals) == 0 {
			continue
		}
		v := e.vals[0]
		for _, w := range e.vals[1:] {
			v = s.Add(v, w)
		}
		b.AddRow(e.row, v)
	}
	return b.Build()
}
