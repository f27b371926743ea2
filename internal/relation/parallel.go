package relation

import (
	"slices"

	"repro/internal/exec"
	"repro/internal/hypergraph"
	"repro/internal/semiring"
)

// Range-split parallel twins of the kernels. Every twin cuts its input
// into contiguous row ranges, runs the sequential core of its operator
// on each range on the exec worker pool, and concatenates the range
// outputs in range order (collectChunks):
//
//   - the prefix merge Join and Semijoin and the prefix Project and
//     EliminateVar folds cut on key-group boundaries (mergeCuts,
//     prefixCuts), so no group straddles a range;
//   - the non-prefix Join cuts only its emission, into blocks of probe
//     rows (joinOrdered).
//
// Bit-identical guarantee: range order is the sequential generation
// order, so the concatenation is exactly the sequential output sequence
// and every duplicate group reaches ⊕ in the sequential order. The
// equivalence tests in parallel_test.go and prop_test.go pin this per
// semiring.

// parallelMinTuples is the size threshold below which range-split
// execution is never worth the fan-out overhead.
const parallelMinTuples = 1 << 14

// maxParts caps the partition count.
const maxParts = 64

// parallelParts returns the partition count for an operation touching n
// tuples: 1 (sequential) below the size threshold or when the default
// pool is single-worker.
func parallelParts(n int) int {
	if n < parallelMinTuples {
		return 1
	}
	w := exec.Workers()
	if w <= 1 {
		return 1
	}
	if w > maxParts {
		w = maxParts
	}
	return w
}

// mergeCuts picks the chunk boundaries of a range-split sorted merge
// over the shared p-column prefix: parts−1 candidate keys sampled at
// even positions of a, each mapped to its lower bound in both operands
// (gallopShared from 0 is exactly that search). A cut is the first
// occurrence of its key, so no key group straddles a chunk, and
// matching groups land in the same chunk on both sides; cuts are
// non-decreasing because the sampled keys are.
func mergeCuts[T any](a, b *Relation[T], p, parts int) (aCut, bCut []int) {
	na, nb := a.Len(), b.Len()
	aAr, bAr := len(a.schema), len(b.schema)
	aCut = make([]int, parts+1)
	bCut = make([]int, parts+1)
	for k := 1; k < parts; k++ {
		pos := na * k / parts
		key := a.rows[pos*aAr : pos*aAr+p]
		aCut[k] = gallopShared(a.rows, aAr, na, 0, key, p)
		bCut[k] = gallopShared(b.rows, bAr, nb, 0, key, p)
	}
	aCut[parts], bCut[parts] = na, nb
	return aCut, bCut
}

// collectChunks runs gen(i) for every chunk on the pool and
// concatenates the per-chunk outputs in chunk order — the shared
// discipline of every range-split operator: chunk order is the
// sequential generation order, so concatenation reproduces the
// sequential byte sequence.
func collectChunks[T any](parts, width int, gen func(i int) ([]int32, []T)) ([]int32, []T) {
	type chunkOut struct {
		rows []int32
		vals []T
	}
	outs := make([]chunkOut, parts)
	exec.Default().Map(parts, func(i int) {
		r, v := gen(i)
		outs[i] = chunkOut{r, v}
	})
	total := 0
	for _, o := range outs {
		total += len(o.vals)
	}
	rows := make([]int32, 0, total*width)
	vals := make([]T, 0, total)
	for _, o := range outs {
		rows = append(rows, o.rows...)
		vals = append(vals, o.vals...)
	}
	return rows, vals
}

// joinMergeParallel is the range-split sorted-merge join (p ≥ 1 shared
// prefix columns): chunk boundaries come from mergeCuts, each chunk runs
// the sequential merge core over its row ranges on the pool, and chunk
// outputs concatenate in chunk order — exactly the sequential generation
// sequence (ascending shared key), so the ordered orientation emits the
// final layout directly and the unordered one feeds the Builder's
// ⊕-merge in the sequential duplicate order. Bit-identical either way.
func joinMergeParallel[T any](s semiring.Semiring[T], a, b *Relation[T], p, parts int) *Relation[T] {
	if a.Len() == 0 || b.Len() == 0 {
		return joinMerge(s, a, b, p)
	}
	outSchema := hypergraph.UnionSorted(a.schema, b.schema)
	srcs := outputSrcs(outSchema, a.schema, b.schema)
	aCut, bCut := mergeCuts(a, b, p, parts)
	rows, vals := collectChunks[T](parts, len(outSchema), func(i int) ([]int32, []T) {
		if aCut[i] == aCut[i+1] || bCut[i] == bCut[i+1] {
			return nil, nil
		}
		return joinMergeRange(s, a, b, p, srcs, len(outSchema), aCut[i], aCut[i+1], bCut[i], bCut[i+1])
	})
	return mergeEmit(s, outSchema, restBefore(a.schema, b.schema, p), rows, vals)
}

// semijoinMergeParallel is the range-split twin of semijoinMerge: the
// same mergeCuts boundaries, each chunk filtering its a-range against
// its b-range; chunk outputs concatenate into a's global row order.
func semijoinMergeParallel[T any](a, b *Relation[T], p, parts int) *Relation[T] {
	if a.Len() == 0 || b.Len() == 0 {
		return semijoinMerge(a, b, p)
	}
	aCut, bCut := mergeCuts(a, b, p, parts)
	rows, vals := collectChunks[T](parts, len(a.schema), func(i int) ([]int32, []T) {
		if aCut[i] == aCut[i+1] || bCut[i] == bCut[i+1] {
			return nil, nil
		}
		return semijoinMergeRange(a, b, p, aCut[i], aCut[i+1], bCut[i], bCut[i+1])
	})
	return fromSorted(a.schema, rows, vals)
}

// prefixCuts picks the chunk boundaries of a range-split contiguous-run
// reduction over the leading p columns of r's sorted rows: parts−1
// candidate keys sampled at even positions, each mapped to the first row
// of its group (gallopShared from 0 is exactly that lower bound), so no
// group straddles a chunk and chunk outputs concatenated in chunk order
// reproduce the sequential group sequence. Cuts are non-decreasing
// because the sampled keys are.
func prefixCuts[T any](r *Relation[T], p, parts int) []int {
	n, a := r.Len(), len(r.schema)
	cuts := make([]int, parts+1)
	for k := 1; k < parts; k++ {
		pos := n * k / parts
		key := r.rows[pos*a : pos*a+p]
		cuts[k] = gallopShared(r.rows, a, n, 0, key, p)
	}
	cuts[parts] = n
	return cuts
}

// projectPrefixRange reduces the contiguous groups of r[lo:hi) onto the
// leading p columns — the shared core of Project's prefix fast path and
// of each chunk of its range-split twin. Within a group the ⊕-order is
// the ascending row order, exactly the sequential fold.
func projectPrefixRange[T any](s semiring.Semiring[T], r *Relation[T], p, lo, hi int) ([]int32, []T) {
	a := len(r.schema)
	var rows []int32
	var vals []T
	for i := lo; i < hi; {
		j := i + 1
		v := r.vals[i]
		for j < hi && compareShared(r.rows[i*a:], r.rows[j*a:], p) == 0 {
			v = s.Add(v, r.vals[j])
			j++
		}
		if !s.IsZero(v) {
			rows = append(rows, r.rows[i*a:i*a+p]...)
			vals = append(vals, v)
		}
		i = j
	}
	return rows, vals
}

// projectPrefixParallel is the range-split twin of Project's prefix fast
// path (p ≥ 1 kept leading columns): prefixCuts aligns chunk boundaries
// to group starts, chunks reduce independently on the pool, and outputs
// concatenate in chunk order — the sequential group sequence, hence
// bit-identical by construction.
func projectPrefixParallel[T any](s semiring.Semiring[T], r *Relation[T], schema []int, p, parts int) *Relation[T] {
	if r.Len() == 0 {
		return fromSorted[T](schema, nil, nil)
	}
	cuts := prefixCuts(r, p, parts)
	rows, vals := collectChunks[T](parts, p, func(i int) ([]int32, []T) {
		if cuts[i] == cuts[i+1] {
			return nil, nil
		}
		return projectPrefixRange(s, r, p, cuts[i], cuts[i+1])
	})
	return fromSorted(schema, rows, vals)
}

// eliminatePrefixRange folds variable-eliminating groups of r[lo:hi)
// grouped on the leading p columns with the per-variable operator — the
// shared core of EliminateVar's innermost fast path and of each chunk of
// its range-split twin. The product-aggregate zero-annihilation rule
// (a group survives only with domSize listed tuples) applies per group,
// so it is chunk-local once groups never straddle a cut.
func eliminatePrefixRange[T any](s semiring.Semiring[T], r *Relation[T], op semiring.Op[T],
	domSize, p, lo, hi int) ([]int32, []T) {
	a := len(r.schema)
	var rows []int32
	var vals []T
	for i := lo; i < hi; {
		j := i + 1
		acc := op.Combine(op.Identity(), r.vals[i])
		for j < hi && compareShared(r.rows[i*a:], r.rows[j*a:], p) == 0 {
			acc = op.Combine(acc, r.vals[j])
			j++
		}
		if !(op.IsProduct() && j-i < domSize) && !s.IsZero(acc) {
			rows = append(rows, r.rows[i*a:i*a+p]...)
			vals = append(vals, acc)
		}
		i = j
	}
	return rows, vals
}

// eliminatePrefixParallel is the range-split twin of EliminateVar's
// innermost-variable fast path (p ≥ 1 remaining leading columns): same
// prefixCuts discipline as projectPrefixParallel.
func eliminatePrefixParallel[T any](s semiring.Semiring[T], r *Relation[T], rest []int,
	op semiring.Op[T], domSize, p, parts int) *Relation[T] {
	if r.Len() == 0 {
		return fromSorted[T](rest, nil, nil)
	}
	cuts := prefixCuts(r, p, parts)
	rows, vals := collectChunks[T](parts, p, func(i int) ([]int32, []T) {
		if cuts[i] == cuts[i+1] {
			return nil, nil
		}
		return eliminatePrefixRange(s, r, op, domSize, p, cuts[i], cuts[i+1])
	})
	return fromSorted(rest, rows, vals)
}

// parallelSortFunc sorts s by cmp with concurrent sub-sorts followed by
// rounds of pairwise parallel merges (ping-pong between s and one
// scratch buffer). Only buildGeneric (arity > keys.MaxPacked) uses it;
// packed keys take radixSortPacked. cmp must induce a strict total order
// — buildGeneric's comparator tiebreaks on input index — so the sorted
// permutation is unique and the result is bit-identical to a sequential
// slices.SortFunc.
func parallelSortFunc[E any](s []E, cmp func(a, b E) int, parts int) {
	n := len(s)
	if parts > n {
		parts = n
	}
	if parts <= 1 {
		slices.SortFunc(s, cmp)
		return
	}
	pool := exec.Default()
	bounds := make([]int, parts+1)
	for i := range bounds {
		bounds[i] = n * i / parts
	}
	pool.Map(parts, func(i int) {
		slices.SortFunc(s[bounds[i]:bounds[i+1]], cmp)
	})
	buf := make([]E, n)
	src, dst := s, buf
	for len(bounds) > 2 {
		nseg := len(bounds) - 1
		pool.Map(nseg/2, func(i int) {
			lo, mid, hi := bounds[2*i], bounds[2*i+1], bounds[2*i+2]
			mergeSorted(dst[lo:hi], src[lo:mid], src[mid:hi], cmp)
		})
		if nseg%2 == 1 { // odd segment out: carry it to the next round
			copy(dst[bounds[nseg-1]:bounds[nseg]], src[bounds[nseg-1]:bounds[nseg]])
		}
		nb := bounds[:0:0]
		for i := 0; i < len(bounds); i += 2 {
			nb = append(nb, bounds[i])
		}
		if nb[len(nb)-1] != n {
			nb = append(nb, n)
		}
		bounds = nb
		src, dst = dst, src
	}
	if n > 0 && &src[0] != &s[0] {
		copy(s, src)
	}
}

// mergeSorted merges two sorted runs into out (len(out) = len(a)+len(b))
// for parallelSortFunc, taking from a on ties — immaterial under a strict
// total order but kept for stability.
func mergeSorted[E any](out, a, b []E, cmp func(x, y E) int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmp(a[i], b[j]) <= 0 {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}
