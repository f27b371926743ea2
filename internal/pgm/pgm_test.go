package pgm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/faq"
	"repro/internal/relation"
)

func TestChainPartitionAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	m := NewChain(5, 3, r)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	z, err := m.Partition()
	if err != nil {
		t.Fatal(err)
	}
	res, err := faq.BruteForce(m.MarginalQuery(nil))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := relation.ScalarValue(sp, res)
	if math.Abs(z-want) > 1e-9*want {
		t.Errorf("Z = %v, brute force %v", z, want)
	}
	if z <= 0 {
		t.Errorf("Z = %v not positive", z)
	}
}

func TestVariableMarginalSumsToZ(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := NewTree(6, 3, r)
	z, err := m.Partition()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		marg, err := m.VariableMarginal(v)
		if err != nil {
			t.Fatalf("marginal(%d): %v", v, err)
		}
		total := 0.0
		for i := 0; i < marg.Len(); i++ {
			total += marg.Value(i)
		}
		if math.Abs(total-z) > 1e-9*z {
			t.Errorf("Σ marginal(x%d) = %v != Z = %v", v, total, z)
		}
	}
}

func TestFactorMarginalMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	m := NewChain(4, 3, r)
	for e := 0; e < m.H.NumEdges(); e++ {
		got, err := m.FactorMarginal(e)
		if err != nil {
			t.Fatal(err)
		}
		want, err := faq.BruteForce(m.MarginalQuery(m.H.Edge(e)))
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(sp, got, want) {
			t.Errorf("factor marginal %d mismatch", e)
		}
	}
}

func TestNormalizeIsDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := NewChain(4, 3, r)
	marg, err := m.VariableMarginal(2)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := m.Normalize(marg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Errorf("probability %v outside [0,1]", p)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("marginal sums to %v, want 1", total)
	}
}

func TestGridModelIsCyclic(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	m := NewGrid(2, 3, 2, r)
	// 2x3 grid: 7 edges, cyclic — exercises the core phase when run
	// distributed; centrally it must still match brute force.
	z, err := m.Partition()
	if err != nil {
		t.Fatal(err)
	}
	res, err := faq.BruteForce(m.MarginalQuery(nil))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := relation.ScalarValue(sp, res)
	if math.Abs(z-want) > 1e-9*want {
		t.Errorf("grid Z = %v, brute force %v", z, want)
	}
}

func TestMarginalErrors(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m := NewChain(3, 2, r)
	if _, err := m.VariableMarginal(-1); err == nil {
		t.Error("expected error for bad variable")
	}
	if _, err := m.FactorMarginal(99); err == nil {
		t.Error("expected error for bad factor")
	}
}

// Validate checks the model's queries will validate.
func (m *Model) Validate() error {
	q := m.query(nil)
	return q.Validate()
}

// Normalize divides a marginal by Z, returning probabilities.
func (m *Model) Normalize(marg *relation.Relation[float64]) (map[string]float64, error) {
	z, err := m.Partition()
	if err != nil {
		return nil, err
	}
	if z <= 0 {
		return nil, fmt.Errorf("pgm: partition function %g not positive", z)
	}
	out := make(map[string]float64, marg.Len())
	for i := 0; i < marg.Len(); i++ {
		key := fmt.Sprint(marg.Tuple(i))
		out[key] = marg.Value(i) / z
	}
	return out, nil
}
