package faqs

import (
	"context"
	"fmt"
)

// Wire types: the JSON request/response schema of cmd/faqd's /solve and
// /explain endpoints. Values travel as float64 for every semiring
// (exact for bool/f2, for count within 2^53; the float semirings are
// float64 natively); a nil Values slice annotates every tuple with the
// semiring's 1 — the natural encoding of ordinary database tuples.

// WireFactor is one input relation in listing representation.
type WireFactor struct {
	Tuples [][]int   `json:"tuples"`
	Values []float64 `json:"values,omitempty"`

	// flat is the row-major buffer the decoder laid Tuples out over
	// (Tuples[i] views flat[i*arity:]); nil on a factor built by hand.
	flat []int
}

// WireRequest is one /solve (or /explain) request.
type WireRequest struct {
	// Semiring names a registry semiring (see SemiringNames).
	Semiring string `json:"semiring"`
	// Edges lists the query hyperedges as vertex-name lists; Factors[i]
	// is the relation on Edges[i] (tuple columns in the edge's order,
	// duplicate names within an edge collapsed to their first column).
	Edges   [][]string   `json:"edges"`
	Factors []WireFactor `json:"factors"`
	// Free lists the free-variable names (may be empty: scalar answer).
	Free []string `json:"free,omitempty"`
	// Aggregates optionally overrides bound-variable aggregates by name
	// ("product", or "max" over sumproduct) — the general-FAQ form.
	Aggregates map[string]string `json:"aggregates,omitempty"`
	// Dom is the domain size D (tuple values live in [0, Dom)).
	Dom int `json:"dom"`
}

// WireInfo is the serving metadata of one answered request.
type WireInfo struct {
	CacheHit bool  `json:"cache_hit"`
	Fallback bool  `json:"fallback"`
	CanonNS  int64 `json:"canon_ns"`
	PlanNS   int64 `json:"plan_ns"`
	BindNS   int64 `json:"bind_ns"`
	ExecNS   int64 `json:"exec_ns"`
	TotalNS  int64 `json:"total_ns"`
}

// WireAnswer is one /solve response.
type WireAnswer struct {
	Schema []string  `json:"schema"`
	Tuples [][]int   `json:"tuples"`
	Values []float64 `json:"values"`
	// PlanHash is the plan fingerprint that served the request; CacheHit
	// reports whether the compiled plan was reused. Both also travel as
	// X-Faqs-Plan-Fingerprint / X-Faqs-Plan-Cache response headers.
	PlanHash string   `json:"plan_hash"`
	CacheHit bool     `json:"cache_hit"`
	Info     WireInfo `json:"info"`
}

// BuildWireQuery assembles a Query from a wire request through the same
// schema and query builders library callers use, so the daemon and the
// library validate identically. A decoded factor's tuples are used where
// the decoder put them; hand-built rows are gathered into one buffer.
func BuildWireQuery(wr *WireRequest) (*Query, error) {
	sem, ok := SemiringByName(wr.Semiring)
	if !ok {
		return nil, fmt.Errorf("faqs: unknown semiring %q (have %v)", wr.Semiring, SemiringNames())
	}
	if len(wr.Edges) == 0 {
		return nil, fmt.Errorf("faqs: request has no edges")
	}
	if len(wr.Factors) != len(wr.Edges) {
		return nil, fmt.Errorf("faqs: %d factors for %d edges", len(wr.Factors), len(wr.Edges))
	}
	qb := NewQuery(sem).Domain(wr.Dom)
	for e, names := range wr.Edges {
		if len(names) == 0 {
			return nil, fmt.Errorf("faqs: edge %d is empty", e)
		}
		// Collapse duplicate name occurrences to their first column —
		// the wire contract: tuples carry one column per distinct name.
		seen := make(map[string]bool, len(names))
		attrs := make([]string, 0, len(names))
		for _, name := range names {
			if !seen[name] {
				seen[name] = true
				attrs = append(attrs, name)
			}
		}
		sch, err := NewSchema(attrs...)
		if err != nil {
			return nil, fmt.Errorf("faqs: edge %d: %w", e, err)
		}
		wf := &wr.Factors[e]
		// The decoder's buffer stands while Tuples still views it row
		// for row; a request edited since decoding falls back to a copy.
		rows := wf.flat
		if len(rows) != len(wf.Tuples)*len(attrs) {
			rows = nil
		}
		for ti, tuple := range wf.Tuples {
			if len(tuple) != len(attrs) {
				return nil, fmt.Errorf("faqs: factor %d tuple %d has arity %d, want %d", e, ti, len(tuple), len(attrs))
			}
			if rows != nil && &tuple[0] != &rows[ti*len(attrs)] {
				rows = nil
			}
		}
		if rows == nil {
			rows = make([]int, 0, len(wf.Tuples)*len(attrs))
			for _, tuple := range wf.Tuples {
				rows = append(rows, tuple...)
			}
		}
		values := wf.Values
		if values != nil {
			if len(values) < len(wf.Tuples) {
				return nil, fmt.Errorf("faqs: factor %d has %d values for %d tuples", e, len(values), len(wf.Tuples))
			}
			values = values[:len(wf.Tuples)]
		}
		qb.Factor(&Relation{schema: sch, rows: rows, values: values})
	}
	qb.Free(wr.Free...)
	for name, agg := range wr.Aggregates {
		qb.Aggregate(name, Aggregate(agg))
	}
	return qb.Build()
}

// WireMaterializeRequest registers a named standing view: the query is
// materialized once and then maintained incrementally through /update.
type WireMaterializeRequest struct {
	// Name identifies the view in subsequent /update calls.
	Name    string      `json:"name"`
	Request WireRequest `json:"request"`
}

// WireTupleUpdate is one inserted or deleted tuple of an /update batch;
// it is exactly the library's TupleUpdate (nil Value means the
// semiring's 1, matching plain wire tuples).
type WireTupleUpdate = TupleUpdate

// WireUpdateRequest applies one insert/delete batch against a named
// materialized view (or closes it). Factor indexes the view's edge
// list; tuples are in the edge's attribute order.
type WireUpdateRequest struct {
	Name    string            `json:"name"`
	Factor  int               `json:"factor"`
	Inserts []WireTupleUpdate `json:"inserts,omitempty"`
	Deletes []WireTupleUpdate `json:"deletes,omitempty"`
	// Close releases the view instead of updating it.
	Close bool `json:"close,omitempty"`
}

// WireMaterializedAnswer is the response of /materialize and /update:
// the view's identity, its maintenance strategy, and the current
// answer (empty when the view was closed).
type WireMaterializedAnswer struct {
	Name     string    `json:"name"`
	Strategy string    `json:"strategy"`
	Closed   bool      `json:"closed,omitempty"`
	Schema   []string  `json:"schema,omitempty"`
	Tuples   [][]int   `json:"tuples,omitempty"`
	Values   []float64 `json:"values,omitempty"`
}

// MaterializeWire builds and materializes a wire request's query — the
// query-assembly half of faqd's /materialize handler.
func (e *Engine) MaterializeWire(ctx context.Context, wr *WireRequest) (*Materialized, error) {
	q, err := BuildWireQuery(wr)
	if err != nil {
		return nil, err
	}
	return e.Materialize(ctx, q)
}

// RenderMaterialized renders a view's current answer on the wire.
func RenderMaterialized(name string, m *Materialized) (*WireMaterializedAnswer, error) {
	res, err := m.Answer()
	if err != nil {
		return nil, err
	}
	return &WireMaterializedAnswer{
		Name:     name,
		Strategy: m.Strategy(),
		Schema:   res.Schema,
		Tuples:   res.Tuples,
		Values:   res.Values,
	}, nil
}

// SolveWire serves one wire request end to end: semiring lookup, query
// assembly through the public builders, Engine.Solve, and the wire
// rendering — the whole body of faqd's /solve handler.
func (e *Engine) SolveWire(ctx context.Context, wr *WireRequest) (*WireAnswer, error) {
	q, err := BuildWireQuery(wr)
	if err != nil {
		return nil, err
	}
	res, err := e.Solve(ctx, q)
	if err != nil {
		return nil, err
	}
	return &WireAnswer{
		Schema:   res.Schema,
		Tuples:   res.Tuples,
		Values:   res.Values,
		PlanHash: res.PlanHash,
		CacheHit: res.CacheHit,
		Info: WireInfo{
			CacheHit: res.CacheHit, Fallback: res.Fallback,
			CanonNS: res.Stats.CanonNS, PlanNS: res.Stats.PlanNS,
			BindNS: res.Stats.BindNS, ExecNS: res.Stats.ExecNS,
			TotalNS: res.Stats.TotalNS,
		},
	}, nil
}
