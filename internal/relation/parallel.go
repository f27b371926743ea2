package relation

import "repro/internal/exec"

// Block splitting. Two kernels split their work across the exec worker
// pool, and nothing else in the package does: the fused GHD-node walk
// (EvalFused), which cuts the factor's rows at keep-group boundaries
// (prefixCuts), and the non-prefix Join's emission (emitJoin), which cuts
// the probe rows into even blocks. Both size each block's range of one
// output buffer up front, let every block write its own range, and pack
// the ranges with closeGaps. Join, Semijoin, Project and EliminateVar
// otherwise run sequentially at every worker count.
//
// Bit-identical guarantee: blocks are contiguous ranges of the
// sequential row sequence, a block never splits a group it folds, and
// closeGaps keeps block order, so the output is exactly the sequential
// one and every group reaches ⊕ in the sequential order. The tests in
// parallel_test.go, emission_test.go and internal/faq pin this per
// semiring.

// parallelMinTuples is the size threshold below which block-split
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

// prefixCuts picks the block boundaries of a split contiguous-run
// reduction over the leading p columns of r's sorted rows: parts−1
// candidate keys sampled at even positions, each mapped to the first row
// of its group (gallopShared from 0 is exactly that lower bound), so no
// group straddles a block and block outputs laid out in block order
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

// closeGaps packs blocks that wrote wrote[i] rows of width w from
// offset off[i] (leaving gaps where zero products or groups dropped)
// into one run from the start, and returns its length.
func closeGaps[T any](rows []int32, vals []T, w int, off, wrote []int) int {
	n := 0
	for i, k := range wrote {
		if n != off[i] {
			copy(rows[n*w:], rows[off[i]*w:(off[i]+k)*w])
			copy(vals[n:], vals[off[i]:off[i]+k])
		}
		n += k
	}
	return n
}
