package faqs

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faq"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/service"
)

// Semiring identifies one registered commutative semiring. The registry
// is the only way to obtain one — Bool, Count, SumProduct, MinPlus,
// MaxTimes, F2, or SemiringByName — so every Semiring value in a built
// query is backed by a typed implementation.
type Semiring struct {
	name string
	impl semiringImpl
}

// Name returns the registry name (also the wire name accepted by faqd).
func (s Semiring) Name() string { return s.name }

// String renders the semiring name.
func (s Semiring) String() string { return s.name }

// The registered semirings of the paper: Boolean conjunctive queries,
// join counting, PGM marginals, tropical shortest-path aggregation,
// Viterbi/MAP, and the F₂ matrix algebra of Section 6.
var (
	Bool = Semiring{"bool", impl[bool]{
		s:    semiring.Bool{},
		conv: func(v float64) bool { return v != 0 },
		back: func(v bool) float64 {
			if v {
				return 1
			}
			return 0
		},
	}}
	Count = Semiring{"count", impl[int64]{
		s:    semiring.Count{},
		conv: func(v float64) int64 { return int64(v) },
		back: func(v int64) float64 { return float64(v) },
	}}
	SumProduct = Semiring{"sumproduct", impl[float64]{
		s:    semiring.SumProduct{},
		conv: identFloat,
		back: identFloat,
		extraAggs: map[Aggregate]semiring.Op[float64]{
			// max shares identities 0 and 1 with (ℝ≥0, +, ×): a valid
			// semiring aggregate per Section 5.
			AggMax: semiring.AddOf[float64](semiring.MaxTimes{}),
		},
	}}
	MinPlus = Semiring{"minplus", impl[float64]{
		s:    semiring.MinPlus{},
		conv: identFloat,
		back: identFloat,
	}}
	MaxTimes = Semiring{"maxtimes", impl[float64]{
		s:    semiring.MaxTimes{},
		conv: identFloat,
		back: identFloat,
	}}
	F2 = Semiring{"f2", impl[byte]{
		s: semiring.F2{},
		conv: func(v float64) byte {
			if v != 0 {
				return 1
			}
			return 0
		},
		back: func(v byte) float64 { return float64(v & 1) },
	}}
)

func identFloat(v float64) float64 { return v }

// registry lists the semirings in stable serving order.
var registry = []Semiring{Bool, Count, SumProduct, MinPlus, MaxTimes, F2}

// Semirings returns every registered semiring.
func Semirings() []Semiring { return append([]Semiring(nil), registry...) }

// SemiringNames returns the registry names, in order.
func SemiringNames() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.name
	}
	return out
}

// SemiringByName looks a semiring up by its registry name.
func SemiringByName(name string) (Semiring, bool) {
	for _, s := range registry {
		if s.name == name {
			return s, true
		}
	}
	return Semiring{}, false
}

// semiringImpl is the typed backing of one registry entry: it constructs
// typed queries from the shared builtSpec and typed runners over the
// internal service layer. Keeping it an interface erases the value type
// T from the public API while every execution stays fully typed inside.
type semiringImpl interface {
	supportsAgg(a Aggregate) bool
	// buildTyped returns the typed *faq.Query[T] plus its post-merge
	// size parameter N = max_e |R_e| (duplicate tuples ⊕-merge during
	// relation building, so the public tuple count overestimates it).
	buildTyped(spec *builtSpec) (any, int, error)
	newRunner(name string, cache *plan.Cache, clu *cluster.Client, opts []service.Option) runner
}

// runner is the per-semiring serving surface an Engine dispatches to.
type runner interface {
	solve(ctx context.Context, q *Query) (*Result, error)
	explain(q *Query) (*Explain, error)
	materialize(ctx context.Context, q *Query) (*Materialized, error)
	network(q *Query, topo Topology, assign []int, output int) (*NetworkRun, error)
	stats() ServiceStats
}

// impl is the generic implementation behind every registry entry.
type impl[T any] struct {
	s         semiring.Semiring[T]
	conv      func(float64) T
	back      func(T) float64
	extraAggs map[Aggregate]semiring.Op[T]
}

func (im impl[T]) supportsAgg(a Aggregate) bool {
	if a == AggProduct {
		return true
	}
	_, ok := im.extraAggs[a]
	return ok
}

func (im impl[T]) opOf(a Aggregate) (semiring.Op[T], bool) {
	if a == AggProduct {
		return semiring.MulOf(im.s), true
	}
	op, ok := im.extraAggs[a]
	return op, ok
}

// buildTyped assembles the *faq.Query[T] of a validated builtSpec: one
// pass over each factor's flat rows checks the domain and feeds the
// columnar builder (explicit values through conv, plain tuples
// annotated with the semiring's 1); then the per-variable aggregate
// overrides.
func (im impl[T]) buildTyped(spec *builtSpec) (any, int, error) {
	factors := make([]*relation.Relation[T], len(spec.factors))
	for e, r := range spec.factors {
		arity := len(spec.edgeIDs[e])
		rb := relation.NewBuilderHint(im.s, spec.edgeIDs[e], r.Len())
		v := im.s.One()
		for ti := 0; ti < r.Len(); ti++ {
			tuple := r.rows[ti*arity : (ti+1)*arity]
			for ci, x := range tuple {
				if x < 0 || x >= spec.dom {
					return nil, 0, fmt.Errorf("faqs: factor %d tuple %d column %q value %d outside domain [0,%d)",
						e, ti, r.schema.attrs[ci], x, spec.dom)
				}
			}
			if r.values != nil {
				v = im.conv(r.values[ti])
			}
			rb.Add(tuple, v)
		}
		factors[e] = rb.Build()
	}
	var varOps map[int]semiring.Op[T]
	for vid, a := range spec.aggs {
		op, ok := im.opOf(a)
		if !ok {
			return nil, 0, fmt.Errorf("faqs: aggregate %q is not valid over this semiring", a)
		}
		if varOps == nil {
			varOps = make(map[int]semiring.Op[T], len(spec.aggs))
		}
		varOps[vid] = op
	}
	q := &faq.Query[T]{S: im.s, H: spec.h, Factors: factors, Free: spec.free, DomSize: spec.dom, VarOps: varOps}
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	return q, q.MaxFactorSize(), nil
}

func (im impl[T]) newRunner(name string, cache *plan.Cache, clu *cluster.Client, opts []service.Option) runner {
	if clu != nil {
		// Copy before appending: the base option slice is shared across
		// every registry entry, so appending in place would leak one
		// semiring's distributed solver into the next runner built.
		if ds, err := cluster.NewSolver[T](clu, name); err == nil {
			opts = append(append([]service.Option(nil), opts...), service.WithDistributed(ds))
		}
	}
	return &typedRunner[T]{im: im, svc: service.New(im.s, name, cache, opts...)}
}

// typedRunner executes a Query through the internal service layer — the
// same fingerprint → cached plan → bind → GHD-pass path cmd/faqd serves,
// so library and daemon share one execution path.
type typedRunner[T any] struct {
	im  impl[T]
	svc *service.Service[T]
}

func (r *typedRunner[T]) typedQuery(q *Query) (*faq.Query[T], error) {
	tq, ok := q.typed.(*faq.Query[T])
	if !ok {
		return nil, fmt.Errorf("faqs: query built for semiring %s routed to the wrong runner", q.sem.name)
	}
	return tq, nil
}

func (r *typedRunner[T]) solve(ctx context.Context, q *Query) (*Result, error) {
	tq, err := r.typedQuery(q)
	if err != nil {
		return nil, err
	}
	ans, info, err := r.svc.Solve(ctx, tq)
	if err != nil {
		return nil, err
	}
	return r.toResult(q, ans, &info), nil
}

func (r *typedRunner[T]) explain(q *Query) (*Explain, error) {
	tq, err := r.typedQuery(q)
	if err != nil {
		return nil, err
	}
	p, g, info, err := r.svc.Explain(tq)
	if err != nil {
		return nil, err
	}
	return buildExplain(q, p, g, &info), nil
}

func (r *typedRunner[T]) network(q *Query, topo Topology, assign []int, output int) (*NetworkRun, error) {
	tq, err := r.typedQuery(q)
	if err != nil {
		return nil, err
	}
	s := &protocol.Setup[T]{Q: tq, G: topo.g, Assign: protocol.Assignment(assign), Output: output}
	ans, rep, err := protocol.Run(s)
	if err != nil {
		return nil, err
	}
	_, repT, err := protocol.RunTrivial(s)
	if err != nil {
		return nil, err
	}
	b, err := core.ComputeBounds(tq.H, tq.MaxFactorSize(), topo.g, s.Players())
	if err != nil {
		return nil, err
	}
	return &NetworkRun{
		Answer:        r.toResult(q, ans, nil),
		Rounds:        rep.Rounds,
		Bits:          rep.Bits,
		TrivialRounds: repT.Rounds,
		TrivialBits:   repT.Bits,
		Bounds: NetworkBounds{
			Y: b.Y, N2: b.N2, Degeneracy: b.Degeneracy, Arity: b.Arity,
			MinCut: b.MinCut, Delta: b.Delta, ST: b.ST, N: b.N,
			Upper: b.Upper, Lower: b.Lower, LowerTilde: b.LowerTilde,
		},
	}, nil
}

func (r *typedRunner[T]) stats() ServiceStats {
	s := r.svc.Stats()
	return ServiceStats{
		Semiring: s.Semiring, Requests: s.Requests, Fallbacks: s.Fallbacks,
		Rejected: s.Rejected, Errors: s.Errors,
		Shed: s.Shed, DeadlineExceeded: s.DeadlineExceeded, Panics: s.Panics,
		Updates: s.Updates, DeltaFallbacks: s.DeltaFallbacks,
	}
}

// toResult renders a typed answer relation for the façade. Scalar
// answers (no free variables) always materialize exactly one row — the
// empty tuple with the aggregate value, the semiring's 0 when no tuple
// survived — so Result.Scalar never has to guess. info may be nil
// (distributed runs carry no serving metadata).
func (r *typedRunner[T]) toResult(q *Query, ans *relation.Relation[T], info *service.Info) *Result {
	res := &Result{
		Schema: make([]string, len(ans.Schema())),
		Tuples: make([][]int, ans.Len()),
		Values: make([]float64, ans.Len()),
	}
	for i, v := range ans.Schema() {
		res.Schema[i] = q.h.VertexName(v)
	}
	for i := 0; i < ans.Len(); i++ {
		t := ans.Tuple(i)
		row := make([]int, len(t))
		for j, x := range t {
			row[j] = int(x)
		}
		res.Tuples[i] = row
		res.Values[i] = r.im.back(ans.Value(i))
	}
	if ans.Arity() == 0 && ans.Len() == 0 {
		res.Tuples = [][]int{{}}
		res.Values = []float64{r.im.back(r.im.s.Zero())}
	}
	if info != nil {
		res.PlanHash = fmt.Sprintf("%016x", info.PlanHash)
		res.CacheHit = info.CacheHit
		res.Fallback = info.Fallback
		res.Stats = SolveStats{
			CanonNS: info.CanonNS, PlanNS: info.PlanNS, BindNS: info.BindNS,
			ExecNS: info.ExecNS, TotalNS: info.TotalNS,
		}
	}
	return res
}
