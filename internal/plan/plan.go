package plan

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/faq"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
)

// NodeBound is the per-GHD-node slice of the paper's structural bounds: a
// node's bag size caps its message arity, and by eq. 24 every message of
// the bottom-up pass carries at most N = max_e |R_e| tuples, so a node's
// materialization is bounded by N^Bag tuples (N for label-covered acyclic
// nodes). Planners surface these through /stats as the cost estimates a
// query optimizer would consult.
type NodeBound struct {
	Bag      int  `json:"bag"`      // |χ(v)|
	Labels   int  `json:"labels"`   // |λ(v)|
	Internal bool `json:"internal"` // counted by y(H) (Definition 2.9)
}

// TupleBound returns the worst-case output cardinality of the node for
// size parameter n = max_e |R_e|: label-covered nodes (one hyperedge,
// the GYO-GHD common case) emit messages of at most n tuples (eq. 24);
// a fat core root materializes up to n^|χ(v)| tuples, exactly as the
// paper's trivial protocol materializes the cyclic core at one player.
func (b NodeBound) TupleBound(n int) float64 {
	if n < 1 {
		n = 1
	}
	if b.Labels <= 1 {
		return float64(n)
	}
	return math.Pow(float64(n), float64(b.Bag))
}

// Plan is one compiled query shape: the data-independent planning output
// that every request sharing the shape reuses. The decomposition lives
// over the canonical hypergraph of the shape's Fingerprint; Bind
// relabels it onto a request's concrete variable ids.
type Plan struct {
	Key  string
	Hash uint64

	// H is the canonical hypergraph, Free the canonical free variables.
	H    *hypergraph.Hypergraph
	Free []int

	// G is the compiled decomposition: width-minimized GYO-GHD re-rooted
	// so the root bag covers Free (faq.PlanGHD). Nil iff Fallback.
	G *ghd.GHD
	// Fallback marks shapes violating the paper's free-variable
	// restriction (F ⊄ every bag, Appendix G.5): no GHD pass can deliver
	// the marginal, so the service executes faq.BruteForce instead. The
	// failed planning attempt is itself worth caching.
	Fallback bool

	// Structural parameters (zero when Fallback): internal-node-width
	// y(H) of the chosen decomposition, core size n₂(H), tree depth, and
	// the per-node bounds.
	Y          int
	N2         int
	Depth      int
	NodeBounds []NodeBound

	// CompileNS is the wall-clock cost of compiling this plan — the work
	// a cache hit saves.
	CompileNS int64

	hits  atomic.Int64
	execs atomic.Int64
	costs atomic.Pointer[[]int64]
}

// Compile derives the Plan of a canonical shape. It is the step the
// cache runs under singleflight: one GYO decomposition, the exact y(H)
// search over it (ghd.MinimizeFrom), re-rooting for the free variables
// (faq.RootForFree, as faq.PlanGHD does), and the structural bounds.
func Compile(fp *Fingerprint) (*Plan, error) {
	t0 := time.Now()
	h := hypergraph.New(fp.NumVars)
	for _, vs := range fp.CanonEdges {
		h.AddEdge(vs...)
	}
	p := &Plan{
		Key:  fp.Key,
		Hash: fp.Hash,
		H:    h,
		Free: append([]int(nil), fp.CanonFree...),
	}
	d := hypergraph.Decompose(h)
	g, err := ghd.MinimizeFrom(h, d)
	if err == nil {
		g, err = faq.RootForFree(g, p.Free)
	}
	switch {
	case errors.Is(err, faq.ErrFreeOutsideRoot):
		p.Fallback = true
	case err != nil:
		return nil, err
	default:
		p.G = g
		p.Y = g.InternalNodes()
		p.N2 = d.N2()
		p.Depth = g.Depth()
		ch := g.Children()
		p.NodeBounds = make([]NodeBound, g.NumNodes())
		for v := 0; v < g.NumNodes(); v++ {
			p.NodeBounds[v] = NodeBound{
				Bag:      len(g.Bags[v]),
				Labels:   len(g.Labels[v]),
				Internal: len(ch[v]) > 0,
			}
		}
	}
	p.CompileNS = time.Since(t0).Nanoseconds()
	return p, nil
}

// Bind instantiates the compiled decomposition for a request hypergraph
// via the Fingerprint that matched this plan: an O(plan size) relabeling
// (ghd.Relabel), validated so that a fingerprint collision surfaces as an
// error instead of a silently wrong execution. The bound GHD feeds
// faq.SolveGHD / protocol.RunOnGHD directly.
func (p *Plan) Bind(fp *Fingerprint, h *hypergraph.Hypergraph) (*ghd.GHD, error) {
	if p.Fallback {
		return nil, fmt.Errorf("plan: %w", faq.ErrFreeOutsideRoot)
	}
	if fp.Key != p.Key {
		return nil, fmt.Errorf("plan: fingerprint key mismatch (plan %016x, request %016x)", p.Hash, fp.Hash)
	}
	if h.NumEdges() != len(fp.EdgeTo) {
		return nil, fmt.Errorf("plan: request has %d edges, fingerprint %d", h.NumEdges(), len(fp.EdgeTo))
	}
	// Invert the request→canonical maps for Relabel (canonical→request).
	varTo := make(map[int]int, fp.NumVars)
	for req, canon := range fp.VarTo {
		if canon >= 0 {
			varTo[canon] = req
		}
	}
	edgeTo := make([]int, len(fp.EdgeTo))
	for req, canon := range fp.EdgeTo {
		edgeTo[canon] = req
	}
	g, err := p.G.Relabel(h, varTo, edgeTo)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("plan: bound decomposition invalid (fingerprint collision?): %w", err)
	}
	return g, nil
}

// EstimateBytes bounds the peak materialization of executing this plan
// on a request with size parameter n = max_e |R_e|, in bytes: the sum of
// the per-node TupleBounds priced at the columnar layout (4 bytes per
// int32 column plus an 8-byte annotation). Fallback plans price the full
// brute-force join over every variable. This is the admission-control
// estimate behind service memory budgets — structural, data-independent,
// and deliberately pessimistic (a float so huge bounds saturate instead
// of overflowing).
func (p *Plan) EstimateBytes(n int) float64 {
	if n < 1 {
		n = 1
	}
	rowBytes := func(arity int) float64 { return float64(4*arity + 8) }
	if p.Fallback {
		vars := p.H.NumVertices()
		return math.Pow(float64(n), float64(vars)) * rowBytes(vars)
	}
	total := 0.0
	for _, b := range p.NodeBounds {
		total += b.TupleBound(n) * rowBytes(b.Bag)
	}
	return total
}

// RecordExec books one execution of the plan and keeps the measured
// per-node costs (the ForestTimed vector of a timed faq.SolveGHD pass)
// that /stats renders as work and critical path. Latest run wins;
// callers pass nil costs to count an execution without a measurement.
// The plan keeps costs, so callers must not modify it afterwards.
func (p *Plan) RecordExec(costs []int64) {
	p.execs.Add(1)
	if len(costs) > 0 {
		p.costs.Store(&costs)
	}
}

// recordHit books one cache hit (called by the Cache).
func (p *Plan) recordHit() { p.hits.Add(1) }

// Snapshot is the JSON-friendly view of a plan for /stats.
type Snapshot struct {
	Hash       string      `json:"hash"`
	Y          int         `json:"y"`
	N2         int         `json:"n2"`
	Depth      int         `json:"depth"`
	Nodes      int         `json:"nodes"`
	Fallback   bool        `json:"fallback"`
	CompileNS  int64       `json:"compile_ns"`
	Hits       int64       `json:"hits"`
	Execs      int64       `json:"execs"`
	WorkNS     int64       `json:"work_ns"`      // measured total work, last run
	CritPathNS int64       `json:"crit_path_ns"` // schedule replay at ∞ workers
	NodeBounds []NodeBound `json:"node_bounds,omitempty"`
}

// Snapshot renders the plan's current counters and measured costs.
func (p *Plan) Snapshot() Snapshot {
	s := Snapshot{
		Hash:       fmt.Sprintf("%016x", p.Hash),
		Y:          p.Y,
		N2:         p.N2,
		Depth:      p.Depth,
		Fallback:   p.Fallback,
		CompileNS:  p.CompileNS,
		Hits:       p.hits.Load(),
		Execs:      p.execs.Load(),
		NodeBounds: p.NodeBounds,
	}
	if p.G != nil {
		s.Nodes = p.G.NumNodes()
	}
	if c := p.costs.Load(); c != nil && p.G != nil {
		s.WorkNS = exec.TotalCost(*c)
		s.CritPathNS = exec.Makespan(p.G.Parent, *c, len(*c))
	}
	return s
}
