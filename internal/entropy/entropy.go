// Package entropy provides the information-theoretic toolkit behind the
// paper's MCM lower bound (Section 6.2): Shannon entropy, min-entropy
// H∞, smooth min-entropy H∞^ε (eq. 6), plus executable versions of the
// two distributional claims:
//
//   - Theorem 6.3 (min-entropy preservation): if A has min-entropy
//     ≥ (1−γ)N² and x has min-entropy ≥ αN, then Ax has min-entropy
//     ≥ (1−√(2γ))N — checked by Monte-Carlo estimation on small N;
//   - Appendix I.3 (why Shannon entropy fails): an explicit x
//     distribution with high Shannon entropy but low min-entropy for
//     which the conditional Shannon entropy of Ax collapses after a
//     small leak — computed in closed form.
package entropy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/f2"
)

// Dist is a probability distribution over uint64-encoded outcomes.
type Dist map[uint64]float64

// Shannon returns H(D) = −Σ p log₂ p.
//
//faqlint:allow deadexport(item 12: Appendix I.3's Shannon entropy, checked by its own tests until it gets a paper-table row)
func Shannon(d Dist) float64 {
	h := 0.0
	for _, p := range d {
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}

// MinEntropy returns H∞(D) = −log₂ max_x p(x).
func MinEntropy(d Dist) float64 {
	max := 0.0
	for _, p := range d {
		if p > max {
			max = p
		}
	}
	if max == 0 {
		return 0
	}
	return -math.Log2(max)
}

// SmoothMinEntropy returns H∞^ε(D) (eq. 6): the supremum of −log₂ max
// P[X = x, E] over events E with P(E) ≥ 1−ε. The optimum caps the
// largest probabilities at a water-filling threshold t with total
// trimmed mass ε, giving H = −log₂ t.
//
//faqlint:allow deadexport(item 12: eq. 6's smooth min-entropy, checked by its own tests until it gets a paper-table row)
func SmoothMinEntropy(d Dist, eps float64) float64 {
	if eps <= 0 {
		return MinEntropy(d)
	}
	probs := make([]float64, 0, len(d))
	total := 0.0
	for _, p := range d {
		if p > 0 {
			probs = append(probs, p)
			total += p
		}
	}
	if len(probs) == 0 {
		return 0
	}
	if eps >= total-1e-12 {
		// ε covers (numerically) all the mass: the cap is unbounded.
		return math.Inf(1)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(probs)))
	// Water-fill: find the level t at which capping every probability
	// above t trims exactly eps mass; then H = −log₂ t.
	prefix := 0.0
	for i := 0; i < len(probs); i++ {
		prefix += probs[i]
		next := 0.0
		if i+1 < len(probs) {
			next = probs[i+1]
		}
		// Cost of capping the top i+1 probabilities at level `next`.
		if cost := prefix - float64(i+1)*next; cost >= eps {
			t := (prefix - eps) / float64(i+1)
			if t < 1e-30 { // ε consumed (numerically) all the mass
				return math.Inf(1)
			}
			return -math.Log2(t)
		}
	}
	// eps covers all mass: the cap can be made arbitrarily small.
	return math.Inf(1)
}

// FromSamples builds the empirical distribution of a sample set.
func FromSamples(xs []uint64) Dist {
	d := make(Dist)
	inc := 1 / float64(len(xs))
	for _, x := range xs {
		d[x] += inc
	}
	return d
}

// ProductExperiment is the Monte-Carlo check of Theorem 6.3 on
// dimension N ≤ 30:
//
//	A: first GammaRows rows fixed to zero, the rest uniform
//	   (H∞(A) = (N−GammaRows)·N = (1−γ)N² with γ = GammaRows/N);
//	x: uniform over a random set of 2^AlphaBits nonzero vectors
//	   (H∞(x) = AlphaBits = αN).
//
// Run estimates H∞(Ax) from Samples draws and reports the theorem's
// (1−√(2γ))·N bound.
type ProductExperiment struct {
	N         int
	GammaRows int
	AlphaBits int
	Samples   int
}

// ProductResult is the outcome of one experiment run.
type ProductResult struct {
	HxDesigned  float64 // αN
	HADesigned  float64 // (1−γ)N²
	HAxEstimate float64 // sampled H∞(Ax)
	Bound       float64 // (1−√(2γ))·N from Theorem 6.3
}

// Run executes the experiment.
func (e *ProductExperiment) Run(r *rand.Rand) (*ProductResult, error) {
	if e.N < 1 || e.N > 30 {
		return nil, fmt.Errorf("entropy: N = %d outside [1, 30]", e.N)
	}
	if e.GammaRows < 0 || e.GammaRows > e.N {
		return nil, fmt.Errorf("entropy: GammaRows = %d outside [0, N]", e.GammaRows)
	}
	if e.AlphaBits < 0 || e.AlphaBits > e.N {
		return nil, fmt.Errorf("entropy: AlphaBits = %d outside [0, N]", e.AlphaBits)
	}
	if e.Samples < 1 {
		return nil, fmt.Errorf("entropy: need at least one sample")
	}
	// Support of x: 2^AlphaBits distinct nonzero vectors.
	want := 1 << uint(e.AlphaBits)
	support := make([]uint64, 0, want)
	seen := map[uint64]bool{0: true}
	for len(support) < want {
		v := f2.RandomVector(e.N, r).Uint()
		if !seen[v] {
			seen[v] = true
			support = append(support, v)
		}
	}
	samples := make([]uint64, e.Samples)
	for i := range samples {
		a := f2.RandomMatrix(e.N, e.N, r)
		for row := 0; row < e.GammaRows; row++ {
			for col := 0; col < e.N; col++ {
				a.Set(row, col, 0)
			}
		}
		x := f2.VectorFromUint(e.N, support[r.Intn(len(support))])
		samples[i] = a.MulVec(x).Uint()
	}
	gamma := float64(e.GammaRows) / float64(e.N)
	res := &ProductResult{
		HxDesigned:  float64(e.AlphaBits),
		HADesigned:  (1 - gamma) * float64(e.N) * float64(e.N),
		HAxEstimate: MinEntropy(FromSamples(samples)),
		Bound:       (1 - math.Sqrt(2*gamma)) * float64(e.N),
	}
	return res, nil
}

// ShannonCounterexample is the Appendix I.3 construction on F₂^N with
// S = span(e₁..e_T) (the first T coordinates) and its complement
// C = span(e_{T+1}..e_N): x is uniform over S with probability 1−Alpha
// and uniform over C with probability Alpha; the leak is
// f(A) = (A·e₁, ..., A·e_T) — the first T columns of A, T·N ≤ γN² bits.
type ShannonCounterexample struct {
	N     int
	T     int
	Alpha float64
}

// CounterexampleResult packages the exact quantities of Appendix I.3.
type CounterexampleResult struct {
	// HShX ≈ 2α(1−α)N for T = αN: high Shannon entropy.
	HShX float64
	// HMinX ≈ T + log₂(1/(1−α)): the min-entropy is low — the
	// hypothesis of Lemma 6.2 fails, which is the point.
	HMinX float64
	// HCondAx = α(1−2^{−(N−T)})·N: the exact conditional Shannon
	// entropy H(Ax | f(A), x) remaining after the leak — the quantity
	// the paper bounds by (1−α)·0 + α·N, about half of HShX.
	HCondAx float64
	// PaperBound = α·N.
	PaperBound float64
}

// Exact evaluates the construction in closed form.
func (c *ShannonCounterexample) Exact() (*CounterexampleResult, error) {
	if c.N < 2 || c.N > 60 || c.T < 1 || c.T >= c.N {
		return nil, fmt.Errorf("entropy: invalid counterexample dimensions N=%d T=%d", c.N, c.T)
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return nil, fmt.Errorf("entropy: Alpha must lie in (0,1)")
	}
	n, t, a := c.N, c.T, c.Alpha
	// Exact distribution of x: S-atoms have mass (1−α)/2^T, C-atoms
	// α/2^{N−T}; the origin belongs to both subspaces.
	pS := (1 - a) / math.Pow(2, float64(t))
	pC := a / math.Pow(2, float64(n-t))
	p0 := pS + pC
	hx := -p0 * math.Log2(p0)
	nS := math.Pow(2, float64(t)) - 1
	nC := math.Pow(2, float64(n-t)) - 1
	hx -= nS * pS * math.Log2(pS)
	hx -= nC * pC * math.Log2(pC)
	// Min-entropy: the heaviest atom is the origin.
	hmin := -math.Log2(p0)
	// H(Ax | f(A), x): for x ∈ S, Ax is determined by the leaked
	// columns; for x ∈ C \ {0}, Ax is uniform over F₂^N (the unleaked
	// columns are uniform); x = 0 gives Ax = 0.
	hcond := a * (1 - math.Pow(2, -float64(n-t))) * float64(n)
	return &CounterexampleResult{
		HShX:       hx,
		HMinX:      hmin,
		HCondAx:    hcond,
		PaperBound: a * float64(n),
	}, nil
}
