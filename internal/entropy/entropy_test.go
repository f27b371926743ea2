package entropy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestShannonUniform(t *testing.T) {
	d := UniformOver([]uint64{0, 1, 2, 3, 4, 5, 6, 7})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := Shannon(d); !almost(got, 3, 1e-12) {
		t.Errorf("H(uniform 8) = %v, want 3", got)
	}
	if got := MinEntropy(d); !almost(got, 3, 1e-12) {
		t.Errorf("H∞(uniform 8) = %v, want 3", got)
	}
}

func TestEntropyOrdering(t *testing.T) {
	// H∞ ≤ H_Sh ≤ log |supp| for arbitrary distributions.
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(20)
		d := make(Dist, n)
		total := 0.0
		for i := 0; i < n; i++ {
			w := r.Float64() + 1e-3
			d[uint64(i)] = w
			total += w
		}
		for k := range d {
			d[k] /= total
		}
		hs, hm := Shannon(d), MinEntropy(d)
		if hm > hs+1e-9 {
			t.Fatalf("H∞ (%v) > H (%v)", hm, hs)
		}
		if hs > math.Log2(float64(n))+1e-9 {
			t.Fatalf("H (%v) > log n (%v)", hs, math.Log2(float64(n)))
		}
	}
}

func TestSmoothMinEntropy(t *testing.T) {
	// One heavy atom (1/2) plus many light ones: smoothing with ε ≥
	// the excess of the heavy atom lifts H∞ toward the light level.
	d := Dist{0: 0.5}
	for i := 1; i <= 50; i++ {
		d[uint64(i)] = 0.01
	}
	h0 := SmoothMinEntropy(d, 0)
	if !almost(h0, 1, 1e-9) {
		t.Errorf("H∞^0 = %v, want 1", h0)
	}
	h := SmoothMinEntropy(d, 0.49)
	if !almost(h, -math.Log2(0.01), 1e-9) {
		t.Errorf("H∞^0.49 = %v, want %v", h, -math.Log2(0.01))
	}
	// Monotone in ε.
	prev := -1.0
	for _, eps := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
		cur := SmoothMinEntropy(d, eps)
		if cur < prev {
			t.Fatalf("smooth min-entropy not monotone at ε=%v", eps)
		}
		prev = cur
	}
	if !math.IsInf(SmoothMinEntropy(d, 1.0), 1) {
		t.Error("ε = 1 should give +Inf")
	}
}

func TestValidateRejects(t *testing.T) {
	if err := (Dist{0: 0.6, 1: 0.6}).Validate(); err == nil {
		t.Error("expected mass error")
	}
	if err := (Dist{0: -0.1, 1: 1.1}).Validate(); err == nil {
		t.Error("expected negativity error")
	}
}

func TestFromSamples(t *testing.T) {
	d := FromSamples([]uint64{1, 1, 2, 2})
	if !almost(d[1], 0.5, 1e-12) || !almost(d[2], 0.5, 1e-12) {
		t.Errorf("empirical = %v", d)
	}
}

func TestProductExperimentUniform(t *testing.T) {
	// γ = 0 (fully uniform A), α = 1/2: Ax should be almost uniform, so
	// the sampled min-entropy must clear the (1−√0)·N = N bound minus
	// sampling slack.
	e := &ProductExperiment{N: 10, GammaRows: 0, AlphaBits: 5, Samples: 200000}
	res, err := e.Run(rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != 10 {
		t.Errorf("bound = %v, want 10", res.Bound)
	}
	// Sampling 2^10 outcomes with 2e5 draws estimates H∞ to ≈ ±0.5.
	if res.HAxEstimate < res.Bound-1.0 {
		t.Errorf("H∞(Ax) estimate %v too far below bound %v", res.HAxEstimate, res.Bound)
	}
}

func TestProductExperimentTheorem63(t *testing.T) {
	// γ = 2/10: Theorem 6.3 promises H∞(Ax) ≥ (1−√0.4)·10 ≈ 3.68.
	e := &ProductExperiment{N: 10, GammaRows: 2, AlphaBits: 6, Samples: 200000}
	res, err := e.Run(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if res.HAxEstimate < res.Bound {
		t.Errorf("H∞(Ax) = %v below Theorem 6.3 bound %v", res.HAxEstimate, res.Bound)
	}
	if res.HADesigned != 80 {
		t.Errorf("H∞(A) = %v, want 80", res.HADesigned)
	}
}

func TestProductExperimentValidation(t *testing.T) {
	bad := []*ProductExperiment{
		{N: 0, Samples: 1},
		{N: 40, Samples: 1},
		{N: 8, GammaRows: 9, Samples: 1},
		{N: 8, AlphaBits: 9, Samples: 1},
		{N: 8, Samples: 0},
	}
	r := rand.New(rand.NewSource(1))
	for i, e := range bad {
		if _, err := e.Run(r); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestShannonCounterexampleShape(t *testing.T) {
	// Appendix I.3 with N = 20, T = αN = 4, α = 0.2: Shannon entropy of
	// x is ≈ 2α(1−α)N = 6.4 while its min-entropy collapses to
	// ≈ T + log₂(1/(1−α)) ≈ 4.32, and the conditional entropy of Ax
	// after the T·N-bit leak is ≈ αN = 4 < H_Sh(x).
	c := &ShannonCounterexample{N: 20, T: 4, Alpha: 0.2}
	res, err := c.Exact()
	if err != nil {
		t.Fatal(err)
	}
	// Exact value = (1−α)T + α(N−T) + h(α) — the paper's 2α(1−α)N plus
	// the mixture term its approximation drops.
	hAlpha := -0.2*math.Log2(0.2) - 0.8*math.Log2(0.8)
	if !almost(res.HShX, 2*0.2*0.8*20+hAlpha, 0.05) {
		t.Errorf("H_Sh(x) = %v, want ≈ %v", res.HShX, 2*0.2*0.8*20+hAlpha)
	}
	if res.HMinX > 4.5 {
		t.Errorf("H∞(x) = %v, want ≈ 4.32 (low)", res.HMinX)
	}
	if res.HCondAx >= res.HShX {
		t.Errorf("conditional H(Ax|f,x) = %v should fall below H_Sh(x) = %v", res.HCondAx, res.HShX)
	}
	if !almost(res.HCondAx, res.PaperBound, 0.01) {
		t.Errorf("exact conditional %v vs paper bound %v", res.HCondAx, res.PaperBound)
	}
	// The Shannon hypothesis was high but the min-entropy hypothesis of
	// Lemma 6.2 fails: H∞(x) ≪ αN is impossible... rather, check the
	// contrast driving Appendix I.3: H_Sh(x) ≫ H∞(x).
	if res.HShX < res.HMinX+1 {
		t.Errorf("expected H_Sh(x) (%v) well above H∞(x) (%v)", res.HShX, res.HMinX)
	}
}

func TestShannonCounterexampleValidation(t *testing.T) {
	bad := []*ShannonCounterexample{
		{N: 1, T: 1, Alpha: 0.5},
		{N: 8, T: 0, Alpha: 0.5},
		{N: 8, T: 8, Alpha: 0.5},
		{N: 8, T: 2, Alpha: 0},
		{N: 8, T: 2, Alpha: 1},
	}
	for i, c := range bad {
		if _, err := c.Exact(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestCounterexampleSampledAgreesWithExact(t *testing.T) {
	// Monte-Carlo cross-check of the closed-form H_Sh(x): sample from
	// the mixture and compare empirical Shannon entropy.
	c := &ShannonCounterexample{N: 12, T: 3, Alpha: 0.25}
	res, err := c.Exact()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	samples := make([]uint64, 400000)
	for i := range samples {
		if r.Float64() < c.Alpha {
			// Uniform over span(e_{T+1}..e_N): random high bits.
			samples[i] = (r.Uint64() << uint(c.T)) & ((1 << uint(c.N)) - 1)
		} else {
			samples[i] = r.Uint64() & ((1 << uint(c.T)) - 1)
		}
	}
	got := Shannon(FromSamples(samples))
	if !almost(got, res.HShX, 0.05) {
		t.Errorf("sampled H_Sh(x) = %v, exact %v", got, res.HShX)
	}
}

// UniformOver returns the uniform distribution on the given outcomes.
func UniformOver(outcomes []uint64) Dist {
	d := make(Dist, len(outcomes))
	p := 1 / float64(len(outcomes))
	for _, x := range outcomes {
		d[x] += p
	}
	return d
}

// Validate checks non-negativity and unit mass (tolerance 1e-9).
func (d Dist) Validate() error {
	total := 0.0
	for x, p := range d {
		if p < 0 {
			return fmt.Errorf("entropy: negative mass %g at %d", p, x)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("entropy: total mass %g != 1", total)
	}
	return nil
}
