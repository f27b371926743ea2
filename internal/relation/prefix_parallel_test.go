package relation

import (
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/semiring"
)

// Prefix folds (Project onto a leading-column prefix, EliminateVar of
// the innermost variable) must stay bit-identical to the input-order
// reference folds at 1, 2 and 8 workers across the adversarial
// distribution grid, including product aggregates whose
// zero-annihilation rule (unlisted tuples kill the group) applies per
// group.

func checkPrefixParallel[T comparable](t *testing.T, s semiring.Semiring[T], val func(*rand.Rand) T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	schema := []int{0, 1, 2}
	for _, dist := range keyDists {
		for _, n := range propSizes {
			rel := randRelDist(s, r, schema, n, 2, dist, val)
			for _, p := range []int{1, 2} {
				keep := schema[:p]
				want := projectFold(s, rel, keep)
				sweepWorkers(func(w int) {
					got, err := Project(s, rel, keep)
					if err != nil {
						t.Fatal(err)
					}
					if !bitIdentical(got, want) {
						t.Fatalf("%s n=%d p=%d workers=%d: prefix Project != reference fold\n got=%v\nwant=%v",
							dist.name, n, p, w, got, want)
					}
				})
			}
			for _, op := range []semiring.Op[T]{semiring.AddOf(s), semiring.MulOf(s)} {
				for _, domSize := range []int{1, 3, 1 << 20} {
					want := eliminateFold(s, rel, 2, op, domSize)
					sweepWorkers(func(w int) {
						got, err := EliminateVar(s, rel, 2, op, domSize)
						if err != nil {
							t.Fatal(err)
						}
						if !bitIdentical(got, want) {
							t.Fatalf("%s n=%d product=%v dom=%d workers=%d: prefix EliminateVar != reference fold",
								dist.name, n, op.IsProduct(), domSize, w)
						}
					})
				}
			}
		}
	}
}

func TestPrefixParallelEquivalenceCount(t *testing.T) {
	checkPrefixParallel[int64](t, semiring.Count{}, func(r *rand.Rand) int64 { return int64(r.Intn(5)) - 1 }, 401)
}

func TestPrefixParallelEquivalenceSumProduct(t *testing.T) {
	checkPrefixParallel[float64](t, semiring.SumProduct{}, func(r *rand.Rand) float64 { return r.Float64() }, 402)
}

func TestPrefixParallelEquivalenceMinPlus(t *testing.T) {
	checkPrefixParallel[float64](t, semiring.MinPlus{}, func(r *rand.Rand) float64 { return float64(r.Intn(40)) / 8 }, 403)
}

// TestPrefixDispatchWorkerSweep crosses the engage threshold through the
// public Project/EliminateVar entry points at 1/2/8 workers, pinning
// bit-identity for both prefix fast paths at real dispatch sizes.
func TestPrefixDispatchWorkerSweep(t *testing.T) {
	s := semiring.SumProduct{}
	r := rand.New(rand.NewSource(404))
	val := func(r *rand.Rand) float64 { return r.Float64() }
	giant := keyDists[3] // one-giant-group: the worst case for range cuts
	rel := randRelDist(s, r, []int{0, 1, 2}, parallelMinTuples+100, 2, giant, val)

	ops := []struct {
		name string
		run  func() *Relation[float64]
	}{
		{"Project/prefix", func() *Relation[float64] {
			out, err := Project(s, rel, []int{0, 1})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"EliminateVar/innermost", func() *Relation[float64] {
			out, err := EliminateVar(s, rel, 2, semiring.AddOf(s), 8)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
	}
	for _, o := range ops {
		prev := exec.SetWorkers(1)
		want := o.run()
		exec.SetWorkers(2)
		got2 := o.run()
		exec.SetWorkers(8)
		got8 := o.run()
		exec.SetWorkers(prev)
		if want.Len() == 0 {
			t.Fatalf("%s: degenerate test, empty output", o.name)
		}
		if !bitIdentical(got2, want) || !bitIdentical(got8, want) {
			t.Fatalf("%s: multi-worker output not bit-identical to 1-worker", o.name)
		}
	}
}
