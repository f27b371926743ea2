package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faq"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/protocol"
	"repro/internal/relation"
	"repro/internal/rpc"
	"repro/internal/semiring"
	"repro/internal/shard"
)

// Options tunes the coordinator.
type Options struct {
	// InFlight bounds concurrent RPCs per worker during scatter/gather
	// fan-outs. Defaults to 4. Keep it ≤ the transport's per-worker
	// connection cap so fan-outs never queue on the pool.
	InFlight int
}

// Stats is a snapshot of the coordinator's cumulative accounting.
type Stats struct {
	Workers int
	Solves  int64
	// Frames counts every request/response exchange.
	Frames int64
	// LoadShards / SolveMessages count relation-bearing frames: factor
	// shards scattered in load phases, and routed message slices plus
	// gathered partials in star phases. They are transport-independent —
	// the differential harness asserts they match between SimTransport
	// and TCP runs.
	LoadShards    int64
	SolveMessages int64
	// Payload bytes are encoded-relation bytes only (frame headers
	// excluded); Wire bytes are everything the transport moved.
	LoadPayloadBytes  int64
	SolvePayloadBytes int64
	// Phases counts synchronization barriers (session setup, load, and
	// per-star scatter/gather) — the cluster's analogue of rounds.
	Phases       int64
	WireOutBytes int64
	WireInBytes  int64
}

// Client is the coordinator's handle on a worker fleet. One Client
// serializes its distributed solves (worker session state is
// per-solve); concurrent callers queue on an internal mutex, so it is
// safe to share one Client across service requests.
type Client struct {
	tr       Transport
	inflight int

	solveMu sync.Mutex // serializes SolveGHD passes
	epoch   uint64     // last solve's session epoch; guarded by solveMu

	solves        atomic.Int64
	frames        atomic.Int64
	loadShards    atomic.Int64
	solveMessages atomic.Int64
	loadPayload   atomic.Int64
	solvePayload  atomic.Int64
	phases        atomic.Int64
}

// NewClient wraps a Transport in a coordinator.
func NewClient(tr Transport, opts Options) *Client {
	if opts.InFlight <= 0 {
		opts.InFlight = 4
	}
	return &Client{tr: tr, inflight: opts.InFlight}
}

// Workers returns the fleet size.
func (c *Client) Workers() int { return c.tr.Workers() }

// Transport exposes the underlying transport (tests and benchmarks).
func (c *Client) Transport() Transport { return c.tr }

// Close releases the transport.
func (c *Client) Close() error { return c.tr.Close() }

// Stats snapshots the cumulative counters.
func (c *Client) Stats() Stats {
	out, in := c.tr.Bytes()
	return Stats{
		Workers:           c.tr.Workers(),
		Solves:            c.solves.Load(),
		Frames:            c.frames.Load(),
		LoadShards:        c.loadShards.Load(),
		SolveMessages:     c.solveMessages.Load(),
		LoadPayloadBytes:  c.loadPayload.Load(),
		SolvePayloadBytes: c.solvePayload.Load(),
		Phases:            c.phases.Load(),
		WireOutBytes:      out,
		WireInBytes:       in,
	}
}

// Ping round-trips a liveness probe to every worker — the startup
// handshake daemons run before serving.
func (c *Client) Ping(ctx context.Context) error {
	reqs := make([]workerReq, c.tr.Workers())
	for w := range reqs {
		reqs[w] = workerReq{worker: w, frame: &rpc.Frame{Kind: kindPing}}
	}
	_, err := c.fanout(ctx, reqs)
	return err
}

// ErrUnavailable marks coordinator↔worker transport failures — dial,
// send, or receive errors, as opposed to worker-side typed replies —
// so serving layers can classify them as retryable: the fleet may be
// mid-restart, and the next solve redials.
var ErrUnavailable = errors.New("cluster: fleet unavailable")

// transportError tags a transport failure with ErrUnavailable while
// keeping the original chain matchable (injected faults must still
// satisfy errors.Is(err, fault.ErrInjected), cancellations their
// context errors).
type transportError struct{ err error }

func (e *transportError) Error() string   { return e.err.Error() }
func (e *transportError) Unwrap() []error { return []error{ErrUnavailable, e.err} }

// roundTrip is the single-exchange primitive: transport errors and
// worker-side kindErr replies both surface as coordinator errors naming
// the worker.
func (c *Client) roundTrip(ctx context.Context, worker int, req *rpc.Frame) (*rpc.Frame, error) {
	resp, err := c.tr.RoundTrip(ctx, worker, req)
	c.frames.Add(1)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %d: %w", worker, &transportError{err})
	}
	if resp.Kind == kindErr {
		return nil, fmt.Errorf("cluster: worker %d: %s", worker, resp.Body)
	}
	return resp, nil
}

type workerReq struct {
	worker int
	frame  *rpc.Frame
}

// fanout issues the requests concurrently with at most InFlight
// outstanding exchanges per worker, returning responses in request
// order. The first error cancels the remaining work and is returned.
func (c *Client) fanout(ctx context.Context, reqs []workerReq) ([]*rpc.Frame, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(reqs) == 0 {
		return nil, nil
	}
	c.phases.Add(1)
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sems := make([]chan struct{}, c.tr.Workers())
	for i := range sems {
		sems[i] = make(chan struct{}, c.inflight)
	}
	results := make([]*rpc.Frame, len(reqs))
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r workerReq) {
			defer wg.Done()
			select {
			case sems[r.worker] <- struct{}{}:
			case <-fctx.Done():
				return
			}
			defer func() { <-sems[r.worker] }()
			resp, err := c.roundTrip(fctx, r.worker, r.frame)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				errMu.Unlock()
				return
			}
			results[i] = resp
		}(i, r)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Solver runs faq.SolveGHD passes on the cluster for one registry
// semiring; it implements faq.DistributedSolver[T] and plugs into
// faq.SolveOptions.Distributed.
type Solver[T any] struct {
	c    *Client
	name string
	cod  shard.Codec[T]
}

// NewSolver binds a coordinator to a registry semiring name.
func NewSolver[T any](c *Client, semiringName string) (*Solver[T], error) {
	_, cod, err := Profile[T](semiringName)
	if err != nil {
		return nil, err
	}
	return &Solver[T]{c: c, name: semiringName, cod: cod}, nil
}

// starPlan is the cluster half of one GHD's pass plan: the partition
// key each factor node shards its rows and routed messages on. Child
// order, keep sets and factor placement come from the embedded faq.Pass.
type starPlan struct {
	*faq.Pass
	key [][]int // node → partition key (nil for factorless nodes)
}

// planStars validates distributability and derives the per-node keys.
// Shapes it cannot run return faq.ErrNotDistributable (wrapped), which
// faq.SolveGHD converts into a local solve.
func planStars[T any](q *faq.Query[T], g *ghd.GHD) (*starPlan, error) {
	if len(q.VarOps) != 0 {
		return nil, fmt.Errorf("%w: per-variable aggregate operators", faq.ErrNotDistributable)
	}
	pass, err := faq.NewPass(g, q.Free)
	if err != nil {
		return nil, err
	}
	p := &starPlan{Pass: pass, key: make([][]int, len(pass.Edges))}
	// key[v] for a factor node: a column set contained in the node's own
	// schema and in every child message's schema, so hash-routing rows
	// and message slices by it co-locates all joining pairs. A factor
	// child c's message schema is statically Keep[c] (its bag is its
	// factor's schema); a factorless child's is data-dependent, so any
	// such child forces the empty key — the worker-0 serialization.
	for v, es := range p.Edges {
		switch {
		case len(es) > 1:
			return nil, fmt.Errorf("%w: GHD node %d carries multiple factors", faq.ErrNotDistributable, v)
		case len(es) == 0:
			continue // computed at the coordinator
		case len(p.Children[v]) == 0:
			p.key[v] = append([]int(nil), p.Keep[v]...)
			continue
		}
		key := []int(nil)
		for i, ch := range p.Children[v] {
			if len(p.Edges[ch]) == 0 {
				key = nil
				break
			}
			if i == 0 {
				key = append([]int(nil), p.Keep[ch]...)
			} else {
				key = hypergraph.IntersectSorted(key, p.Keep[ch])
			}
		}
		p.key[v] = key
	}
	return p, nil
}

// SolveGHD runs the validated bottom-up pass on the cluster. The
// answer is bit-identical to the local faq.SolveGHD for exact
// semirings (and semiring-Equal for floating-point ones, whose ⊕ may
// re-associate across workers).
func (s *Solver[T]) SolveGHD(ctx context.Context, q *faq.Query[T], g *ghd.GHD) (*relation.Relation[T], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	plan, err := planStars(q, g)
	if err != nil {
		return nil, err
	}
	c := s.c
	c.solveMu.Lock()
	defer c.solveMu.Unlock()
	W := c.tr.Workers()
	phasesBefore, payloadBefore := c.phases.Load(), c.solvePayload.Load()

	// Session setup: clear worker state, then bind the semiring profile.
	// Every session frame of this solve carries its epoch.
	c.epoch = max(c.epoch+1, uint64(time.Now().UnixNano()))
	epoch := appendEpoch(nil, c.epoch)
	if err := c.broadcast(ctx, &rpc.Frame{Kind: kindReset, Body: epoch}); err != nil {
		return nil, err
	}
	qbody := append(slices.Clip(epoch), encodeQuery(s.name, q.DomSize)...)
	if err := c.broadcast(ctx, &rpc.Frame{Kind: kindQuery, Body: qbody}); err != nil {
		return nil, err
	}

	// Load phase: hash-partition every factor on its node's key and
	// scatter the shards. Every worker gets a (possibly empty) shard so
	// it knows each relation's schema.
	var loads []workerReq
	for _, v := range plan.Order {
		f := faq.NodeFactor(q, plan.Pass, v, q.Factors)
		if f == nil {
			continue
		}
		shards, err := shard.Split(q.S, f, plan.key[v], W)
		if err != nil {
			return nil, fmt.Errorf("cluster: sharding factor of node %d: %w", v, err)
		}
		for w, sh := range shards {
			body := shard.AppendEncode(slices.Clip(epoch), sh, s.cod)
			c.loadShards.Add(1)
			c.loadPayload.Add(int64(len(body) - epochBytes))
			loads = append(loads, workerReq{worker: w, frame: &rpc.Frame{Kind: kindLoad, A: int32(v), Body: body}})
		}
	}
	if _, err := c.fanout(ctx, loads); err != nil {
		return nil, err
	}

	// Bottom-up pass: one scatter/gather per star, in postorder.
	msgs := make([]*relation.Relation[T], len(plan.Parent))
	for _, v := range plan.Order {
		if len(plan.Edges[v]) == 0 {
			// Factorless node (the fat core root of Construction 2.8):
			// its children's merged messages are already here — evaluate
			// it at the coordinator, as the protocol runner runs its core
			// phase at one player.
			cur, err := faq.EvalAt(q, plan.Pass, v, nil, msgs)
			if err != nil {
				return nil, err
			}
			for _, ch := range plan.Children[v] {
				msgs[ch] = nil
			}
			msgs[v] = cur
			continue
		}
		// Scatter: route each child's merged message to the workers
		// holding the matching shard rows.
		var stores []workerReq
		for i, ch := range plan.Children[v] {
			routed, err := shard.Split(q.S, msgs[ch], plan.key[v], W)
			if err != nil {
				return nil, fmt.Errorf("cluster: routing message %d→%d: %w", ch, v, err)
			}
			msgs[ch] = nil
			for w, sl := range routed {
				body := shard.AppendEncode(slices.Clip(epoch), sl, s.cod)
				c.solveMessages.Add(1)
				c.solvePayload.Add(int64(len(body) - epochBytes))
				stores = append(stores, workerReq{worker: w, frame: &rpc.Frame{
					Kind: kindStore, A: int32(v), B: int32(i), Body: body,
				}})
			}
		}
		if len(stores) > 0 {
			if _, err := c.fanout(ctx, stores); err != nil {
				return nil, err
			}
		}
		// Gather: every worker runs its local star and returns the
		// partial message; merge in worker order.
		keepBody := append(slices.Clip(epoch), encodeVars(plan.Keep[v])...)
		computes := make([]workerReq, W)
		for w := 0; w < W; w++ {
			computes[w] = workerReq{worker: w, frame: &rpc.Frame{
				Kind: kindCompute, A: int32(v), B: int32(len(plan.Children[v])), Body: keepBody,
			}}
		}
		resps, err := c.fanout(ctx, computes)
		if err != nil {
			return nil, err
		}
		parts := make([]*relation.Relation[T], W)
		for w, resp := range resps {
			part, err := shard.Decode(q.S, s.cod, resp.Body)
			if err != nil {
				return nil, fmt.Errorf("cluster: worker %d partial for node %d: %w", w, v, err)
			}
			c.solveMessages.Add(1)
			c.solvePayload.Add(int64(len(resp.Body)))
			parts[w] = part
		}
		msgs[v] = mergeParts(q.S, parts)
	}
	c.solves.Add(1)
	protocol.RecordComms("cluster",
		int(c.phases.Load()-phasesBefore), c.solvePayload.Load()-payloadBefore)
	return msgs[plan.Root], nil
}

// broadcast sends the same frame to every worker.
func (c *Client) broadcast(ctx context.Context, f *rpc.Frame) error {
	reqs := make([]workerReq, c.tr.Workers())
	for w := range reqs {
		reqs[w] = workerReq{worker: w, frame: f}
	}
	_, err := c.fanout(ctx, reqs)
	return err
}

// mergeParts concatenates per-worker partials in worker order; the
// Builder re-sorts and ⊕-merges groups split across workers, yielding
// the same sorted layout the central pass produces.
func mergeParts[T any](s semiring.Semiring[T], parts []*relation.Relation[T]) *relation.Relation[T] {
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	b := relation.NewBuilderHint(s, parts[0].Schema(), total)
	for _, p := range parts {
		n := p.Len()
		for i := 0; i < n; i++ {
			b.AddRow(p.Tuple(i), p.Value(i))
		}
	}
	return b.Build()
}
