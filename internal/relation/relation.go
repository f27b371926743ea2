// Package relation implements semiring-annotated relations in listing
// representation — the input format of the paper's FAQ queries: a function
// f_e is stored as the list of its non-zero values
// R_e = {(y, f_e(y)) : f_e(y) ≠ 0} (Section 1).
//
// Relations are immutable after construction; all operations return new
// relations. Tuples are kept sorted lexicographically, so equal relations
// have identical layouts and every computation in the repository is
// deterministic.
//
// # Performance notes
//
// The kernel is columnar and allocation-light: tuples live in one flat
// []int32 row buffer, and every operator matches and groups rows by
// sorted order, never through a hash table.
//
//   - Keys compare as order-preserving uint64 packed keys
//     (internal/keys) on their first two columns and column by column
//     past those; no key is encoded as a string.
//   - Join and Semijoin run one galloping sorted-merge. When the shared
//     variables are a schema prefix of both operands (always true for
//     same-key star reductions) the operands are already in key order.
//     Otherwise both are first radix-sorted on the key, and Join emits
//     in the first operand's row order. When one operand's variables
//     all precede the other's unshared ones, Join makes it the first:
//     its output is then generated sorted and skips the Builder.
//   - Project and EliminateVar reduce contiguous runs of a schema prefix
//     in one linear pass. Projecting onto leading variables or
//     eliminating the innermost one needs no re-sort; eliminating any
//     other variable first re-lays the rows with the remaining columns
//     leading, in stable key order.
//   - Builder batches row growth, radix-sorts packed keys for arity ≤ 2
//     (a stable LSD sort, so duplicates merge in input order), and can be
//     presized via NewBuilderHint. It records each relation's value
//     range as it emits the rows, so a domain check needs no scan.
package relation

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/fault"
	"repro/internal/hypergraph"
	"repro/internal/keys"
	"repro/internal/semiring"
)

// Chaos failpoints at the kernel entry points. Build and the join
// kernels have no error path, so their sites use Inject (failing modes
// panic, recovered into a typed error at the service boundary);
// EliminateVar returns an error and uses Hit.
var (
	buildSite     = fault.Register("relation.build")
	eliminateSite = fault.Register("relation.eliminate")
)

// Relation is a finite map from tuples over a variable schema to non-zero
// semiring values. The schema lists variable ids sorted ascending; each
// tuple stores one int32 per schema variable.
type Relation[T any] struct {
	schema []int
	rows   []int32 // flattened: len = arity * Len()
	vals   []T
	lo, hi int32 // least and greatest cell value, when ranged
	ranged bool  // the Builder recorded lo and hi while emitting rows
}

// Schema returns the sorted variable ids. Callers must not modify it.
func (r *Relation[T]) Schema() []int { return r.schema }

// Arity returns the number of schema variables.
func (r *Relation[T]) Arity() int { return len(r.schema) }

// Len returns the number of listed (non-zero) tuples.
func (r *Relation[T]) Len() int {
	if len(r.schema) == 0 {
		return len(r.vals)
	}
	return len(r.rows) / len(r.schema)
}

// Tuple returns the i-th tuple as a view; callers must not modify it.
func (r *Relation[T]) Tuple(i int) []int32 {
	a := len(r.schema)
	return r.rows[i*a : (i+1)*a]
}

// ValueRange returns the least and greatest cell value of r, as the
// Builder recorded them while emitting r's rows. ok is false when r has
// no cells or was not built by a Builder; its range is then unknown.
func (r *Relation[T]) ValueRange() (lo, hi int32, ok bool) {
	return r.lo, r.hi, r.ranged && len(r.rows) > 0
}

// Value returns the annotation of the i-th tuple.
func (r *Relation[T]) Value(i int) T { return r.vals[i] }

// String renders the relation for diagnostics.
func (r *Relation[T]) String() string {
	return fmt.Sprintf("Relation(schema=%v, n=%d)", r.schema, r.Len())
}

// fromSorted wraps pre-sorted, duplicate-free storage without copying.
// Callers transfer ownership of rows and vals.
func fromSorted[T any](schema []int, rows []int32, vals []T) *Relation[T] {
	return &Relation[T]{schema: schema, rows: rows, vals: vals}
}

// Builder accumulates tuples and merges duplicates with the semiring's ⊕
// at Build time, dropping zero-valued results (listing representation).
type Builder[T any] struct {
	s      semiring.Semiring[T]
	schema []int
	perm   []int // column permutation from input order to sorted schema
	rows   []int32
	vals   []T
}

// NewBuilder returns a builder over the given schema (any order; columns
// are normalized to sorted variable order internally). Duplicate
// variables in the schema are a programmer error and panic.
func NewBuilder[T any](s semiring.Semiring[T], schema []int) *Builder[T] {
	return NewBuilderHint(s, schema, 0)
}

// NewBuilderHint is NewBuilder with a tuple-capacity hint, so operators
// that know their input cardinality (Project, Join) can presize the row
// and value buffers and avoid growth reallocations.
func NewBuilderHint[T any](s semiring.Semiring[T], schema []int, capacity int) *Builder[T] {
	sorted := append([]int(nil), schema...)
	sort.Ints(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			//faqlint:allow nopanic(programmer-error precondition: a duplicate schema variable is a caller bug, not data)
			panic(fmt.Sprintf("relation: duplicate variable %d in schema %v", sorted[i], schema))
		}
	}
	perm := make([]int, len(schema))
	for i, v := range schema {
		perm[i] = sort.SearchInts(sorted, v)
	}
	b := &Builder[T]{s: s, schema: sorted, perm: perm}
	if capacity > 0 {
		b.rows = make([]int32, 0, capacity*len(sorted))
		b.vals = make([]T, 0, capacity)
	}
	return b
}

// Len returns the number of tuples added so far (before duplicate
// merging).
func (b *Builder[T]) Len() int { return len(b.vals) }

// Add appends a tuple (given in the builder's original schema order) with
// an annotation. Length mismatches panic.
func (b *Builder[T]) Add(tuple []int, val T) {
	if len(tuple) != len(b.schema) {
		//faqlint:allow nopanic(programmer-error precondition: tuple arity is fixed by the schema the caller built)
		panic(fmt.Sprintf("relation: tuple arity %d != schema arity %d", len(tuple), len(b.schema)))
	}
	n := len(b.rows)
	b.rows = slices.Grow(b.rows, len(tuple))[:n+len(tuple)]
	row := b.rows[n:]
	for i, x := range tuple {
		row[b.perm[i]] = int32(x)
	}
	b.vals = append(b.vals, val)
}

// AddRow appends a tuple already laid out in sorted-schema column order
// (the order Relation.Tuple uses). The row is copied. This is the
// allocation-free entry point for operators transferring rows between
// relations.
func (b *Builder[T]) AddRow(row []int32, val T) {
	if len(row) != len(b.schema) {
		//faqlint:allow nopanic(programmer-error precondition: row arity is fixed by the schema the caller built)
		panic(fmt.Sprintf("relation: row arity %d != schema arity %d", len(row), len(b.schema)))
	}
	b.rows = append(b.rows, row...)
	b.vals = append(b.vals, val)
}

// AddOne appends a tuple annotated with the semiring's 1 — the natural
// encoding of an ordinary (Boolean) database tuple.
func (b *Builder[T]) AddOne(tuple ...int) { b.Add(tuple, b.s.One()) }

// Build merges duplicate tuples with ⊕, drops zeros, sorts
// lexicographically, and returns the immutable relation.
func (b *Builder[T]) Build() *Relation[T] {
	buildSite.Inject()
	a := len(b.schema)
	n := len(b.vals)
	if n == 0 {
		return &Relation[T]{schema: b.schema}
	}
	if a == 0 {
		v := b.vals[0]
		for _, w := range b.vals[1:] {
			v = b.s.Add(v, w)
		}
		if b.s.IsZero(v) {
			return &Relation[T]{schema: b.schema}
		}
		return &Relation[T]{schema: b.schema, vals: []T{v}}
	}
	if a <= keys.MaxPacked {
		return b.buildPacked()
	}
	return b.buildGeneric()
}

// packedRow pairs a tuple's order-preserving uint64 key with its input
// index; sorting by (key, idx) sorts tuples lexicographically while
// keeping the duplicate-merge order deterministic.
type packedRow struct {
	key uint64
	idx int32
}

// radixMinRows is the length below which radixSortPacked insertion-sorts
// instead: a pass's 256-bucket prefix sum outweighs a few dozen moves.
const radixMinRows = 32

// radixSortPacked stably sorts pr by key with an LSD radix sort on 8-bit
// digits and returns the sorted rows: pr itself or one scratch slice of
// the same length, whichever the last pass wrote (no copy-back). Digit
// positions on which every key agrees are skipped, an input already in
// key order is returned untouched, and short inputs take a stable
// insertion sort in place. Stability makes the result the unique
// (key, idx) order of rows listed in idx order.
func radixSortPacked(pr []packedRow) []packedRow {
	n := len(pr)
	if n < radixMinRows {
		for i := 1; i < n; i++ {
			p, j := pr[i], i
			for ; j > 0 && pr[j-1].key > p.key; j-- {
				pr[j] = pr[j-1]
			}
			pr[j] = p
		}
		return pr
	}
	var diff uint64
	sorted := true
	k0 := pr[0].key
	for i := 1; i < n; i++ {
		diff |= pr[i].key ^ k0
		sorted = sorted && pr[i-1].key <= pr[i].key
	}
	if sorted {
		return pr
	}
	src, dst := pr, make([]packedRow, n)
	for shift := uint(0); shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		var pos [256]int
		for _, p := range src {
			pos[byte(p.key>>shift)]++
		}
		off := 0
		for d, c := range pos {
			pos[d] = off
			off += c
		}
		for _, p := range src {
			d := byte(p.key >> shift)
			dst[pos[d]] = p
			pos[d]++
		}
		src, dst = dst, src
	}
	return src
}

func (b *Builder[T]) buildPacked() *Relation[T] {
	a := len(b.schema)
	n := len(b.vals)
	pr := make([]packedRow, n)
	if a == 1 {
		for i := 0; i < n; i++ {
			pr[i] = packedRow{keys.Pack1(b.rows[i]), int32(i)}
		}
	} else {
		for i := 0; i < n; i++ {
			pr[i] = packedRow{keys.Pack2(b.rows[2*i], b.rows[2*i+1]), int32(i)}
		}
	}
	// pr is filled in idx order, so the stable radix sort yields the
	// (key, idx) order: duplicates reach ⊕ in input order.
	pr = radixSortPacked(pr)
	rows := make([]int32, 0, n*a)
	vals := make([]T, 0, n)
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	for i := 0; i < n; {
		j := i + 1
		v := b.vals[pr[i].idx]
		for j < n && pr[j].key == pr[i].key {
			v = b.s.Add(v, b.vals[pr[j].idx])
			j++
		}
		if !b.s.IsZero(v) {
			if a == 1 {
				x := keys.Unpack1(pr[i].key)
				rows = append(rows, x)
				lo, hi = min(lo, x), max(hi, x)
			} else {
				x, y := keys.Unpack2(pr[i].key)
				rows = append(rows, x, y)
				lo, hi = min(lo, x, y), max(hi, x, y)
			}
			vals = append(vals, v)
		}
		i = j
	}
	return &Relation[T]{schema: b.schema, rows: rows, vals: vals, lo: lo, hi: hi, ranged: true}
}

func (b *Builder[T]) buildGeneric() *Relation[T] {
	a := len(b.schema)
	n := len(b.vals)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	all := b.rows
	cmp := func(x, y int32) int {
		rx := all[int(x)*a : int(x)*a+a]
		ry := all[int(y)*a : int(y)*a+a]
		for k := 0; k < a; k++ {
			if rx[k] != ry[k] {
				if rx[k] < ry[k] {
					return -1
				}
				return 1
			}
		}
		return int(x) - int(y)
	}
	slices.SortFunc(idx, cmp)
	rowEq := func(x, y int32) bool {
		rx := all[int(x)*a : int(x)*a+a]
		ry := all[int(y)*a : int(y)*a+a]
		for k := 0; k < a; k++ {
			if rx[k] != ry[k] {
				return false
			}
		}
		return true
	}
	rows := make([]int32, 0, n*a)
	vals := make([]T, 0, n)
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	for i := 0; i < n; {
		j := i + 1
		v := b.vals[idx[i]]
		for j < n && rowEq(idx[i], idx[j]) {
			v = b.s.Add(v, b.vals[idx[j]])
			j++
		}
		if !b.s.IsZero(v) {
			row := all[int(idx[i])*a : int(idx[i])*a+a]
			lo, hi = min(lo, slices.Min(row)), max(hi, slices.Max(row))
			rows = append(rows, row...)
			vals = append(vals, v)
		}
		i = j
	}
	return &Relation[T]{schema: b.schema, rows: rows, vals: vals, lo: lo, hi: hi, ranged: true}
}

// Empty returns the empty relation over a schema.
func Empty[T any](schema []int) *Relation[T] {
	sorted := append([]int(nil), schema...)
	sort.Ints(sorted)
	return &Relation[T]{schema: sorted}
}

// Unit returns the zero-arity relation holding the single empty tuple
// with the given value — the ⊗-identity of joins and the shape of a BCQ
// answer (a single semiring value).
func Unit[T any](s semiring.Semiring[T], val T) *Relation[T] {
	r := &Relation[T]{schema: nil}
	if !s.IsZero(val) {
		r.vals = append(r.vals, val)
	}
	return r
}

// ScalarValue returns the single value of a zero-arity relation (the BCQ
// or fully-aggregated FAQ answer): the stored value, or ⊕'s identity 0
// when the relation is empty.
func ScalarValue[T any](s semiring.Semiring[T], r *Relation[T]) (T, error) {
	if len(r.schema) != 0 {
		var zero T
		return zero, fmt.Errorf("relation: ScalarValue on non-scalar schema %v", r.schema)
	}
	if len(r.vals) == 0 {
		return s.Zero(), nil
	}
	return r.vals[0], nil
}

// Columns maps the variables vs to their column indices in a sorted
// schema, in the order vs lists them. Membership is verified, not
// trusted: a variable missing from the schema is an error, never a
// silently wrong or out-of-range column.
func Columns(schema, vs []int) ([]int, error) {
	cols := make([]int, len(vs))
	for i, v := range vs {
		j := sort.SearchInts(schema, v)
		if j >= len(schema) || schema[j] != v {
			return nil, fmt.Errorf("relation: variable %d not in schema %v", v, schema)
		}
		cols[i] = j
	}
	return cols, nil
}

// isIdentPrefix reports whether cols selects the leading columns in
// order — the condition under which sorted tuples group contiguously on
// those columns.
func isIdentPrefix(cols []int) bool {
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return true
}

// Project returns π_vs(r) with duplicate projected tuples merged by ⊕
// (the FAQ-SS semantics of summing out the dropped variables all at
// once). vs must be a subset of r's schema.
func Project[T any](s semiring.Semiring[T], r *Relation[T], vs []int) (*Relation[T], error) {
	sorted := append([]int(nil), vs...)
	sort.Ints(sorted)
	cols, err := Columns(r.schema, sorted)
	if err != nil {
		return nil, err
	}
	p := len(cols)
	n := r.Len()
	if isIdentPrefix(cols) {
		// Keeping a schema prefix: groups are contiguous runs of the
		// sorted rows, each folded in row order — one linear pass,
		// already in output order.
		a := len(r.schema)
		var rows []int32
		var vals []T
		for i := 0; i < n; {
			j := i + 1
			v := r.vals[i]
			for j < n && compareShared(r.rows[i*a:], r.rows[j*a:], p) == 0 {
				v = s.Add(v, r.vals[j])
				j++
			}
			if !s.IsZero(v) {
				rows = append(rows, r.rows[i*a:i*a+p]...)
				vals = append(vals, v)
			}
			i = j
		}
		return fromSorted(sorted, rows, vals), nil
	}
	b := NewBuilderHint(s, sorted, n)
	scratch := make([]int32, p)
	for i := 0; i < n; i++ {
		t := r.Tuple(i)
		for k, c := range cols {
			scratch[k] = t[c]
		}
		b.AddRow(scratch, r.vals[i])
	}
	return b.Build(), nil
}

// EliminateVar aggregates variable v out of r with the given per-variable
// operator (general FAQ, eq. 4): tuples equal on the remaining schema are
// combined with op. For a product aggregate ⊗, unlisted tuples are zeros
// and annihilate the product, so a group survives only when it has one
// tuple per domain value — domSize values — mirroring Corollary G.2's
// push-down over listing representations.
func EliminateVar[T any](s semiring.Semiring[T], r *Relation[T], v int, op semiring.Op[T], domSize int) (*Relation[T], error) {
	if err := eliminateSite.Hit(nil); err != nil {
		return nil, err
	}
	vcols, err := Columns(r.schema, []int{v})
	if err != nil {
		return nil, err
	}
	vcol := vcols[0]
	rest := hypergraph.DiffSorted(r.schema, []int{v})
	a := len(r.schema)
	p := len(rest)
	n := r.Len()

	if vcol != a-1 {
		// Re-lay the rows with the remaining columns leading, in stable
		// key order: each group becomes a contiguous run whose rows keep
		// their input order, so the fold below sees every group in the
		// same ⊕-order as a fold over r's rows.
		restCols, _ := Columns(r.schema, rest)
		rows := make([]int32, 0, n*a)
		vals := make([]T, 0, n)
		for _, e := range orderOn(r, restCols).pr {
			t := r.Tuple(int(e.idx))
			for _, c := range restCols {
				rows = append(rows, t[c])
			}
			rows = append(rows, t[vcol])
			vals = append(vals, r.vals[e.idx])
		}
		r = &Relation[T]{schema: append(rest[:p:p], v), rows: rows, vals: vals}
	}
	// The remaining columns now lead and v is innermost, so groups are
	// contiguous runs, each folded in row order. The product aggregate's
	// zero-annihilation rule applies per group: it survives only with
	// domSize listed tuples.
	var rows []int32
	var vals []T
	for i := 0; i < n; {
		j := i + 1
		acc := op.Combine(op.Identity(), r.vals[i])
		for j < n && compareShared(r.rows[i*a:], r.rows[j*a:], p) == 0 {
			acc = op.Combine(acc, r.vals[j])
			j++
		}
		if !(op.IsProduct() && j-i < domSize) && !s.IsZero(acc) {
			rows = append(rows, r.rows[i*a:i*a+p]...)
			vals = append(vals, acc)
		}
		i = j
	}
	return fromSorted(rest, rows, vals), nil
}

// Equal reports whether two relations have the same schema and the same
// tuples with semiring-equal annotations.
func Equal[T any](s semiring.Semiring[T], a, b *Relation[T]) bool {
	if len(a.schema) != len(b.schema) || a.Len() != b.Len() {
		return false
	}
	for i := range a.schema {
		if a.schema[i] != b.schema[i] {
			return false
		}
	}
	if !slices.Equal(a.rows, b.rows) {
		return false
	}
	for i := range a.vals {
		if !s.Equal(a.vals[i], b.vals[i]) {
			return false
		}
	}
	return true
}

// Rename returns a copy of r with schema variables substituted according
// to m (old id -> new id); variables absent from m keep their ids. The
// mapping must remain injective on the schema.
func Rename[T any](s semiring.Semiring[T], r *Relation[T], m map[int]int) (*Relation[T], error) {
	newSchema := make([]int, len(r.schema))
	for i, v := range r.schema {
		if nv, ok := m[v]; ok {
			newSchema[i] = nv
		} else {
			newSchema[i] = v
		}
	}
	ascending := true
	for i := 1; i < len(newSchema); i++ {
		if newSchema[i] <= newSchema[i-1] {
			ascending = false
			break
		}
	}
	if ascending {
		// Order-preserving rename: the column layout and tuple order are
		// unchanged, so the result shares the immutable storage.
		return fromSorted(newSchema, r.rows, r.vals), nil
	}
	seen := make(map[int]bool, len(newSchema))
	for _, v := range newSchema {
		if seen[v] {
			return nil, fmt.Errorf("relation: rename collapses schema %v via %v", r.schema, m)
		}
		seen[v] = true
	}
	b := NewBuilderHint(s, newSchema, r.Len())
	tuple := make([]int, len(newSchema))
	for i := 0; i < r.Len(); i++ {
		t := r.Tuple(i)
		for k := range t {
			tuple[k] = int(t[k])
		}
		b.Add(tuple, r.vals[i])
	}
	return b.Build(), nil
}
