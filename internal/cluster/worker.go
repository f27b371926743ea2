package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/faq"
	"repro/internal/relation"
	"repro/internal/rpc"
	"repro/internal/semiring"
	"repro/internal/shard"
)

// Worker holds one shard-worker's session state: the factor shards it
// was scattered and the routed message slices stored for each star. It
// serves the cluster frame protocol via Handle — plug it into
// rpc.Serve for a real worker or into SimTransport for the in-process
// double. A Worker serves one coordinator session at a time (the
// coordinator serializes solves); Handle is safe for concurrent calls.
type Worker struct {
	mu    sync.Mutex
	epoch uint64 // newest session epoch seen; older frames are stale
	sess  session
}

// errStaleEpoch rejects a session frame from a solve older than the
// worker's current session. The reply goes back on the frame's own
// connection, so the superseded solve, not the current one, sees it.
var errStaleEpoch = errors.New("cluster: frame from a superseded solve")

// NewWorker returns an idle worker with no session.
func NewWorker() *Worker { return &Worker{} }

// Handle serves one protocol frame, returning the reply frame.
// Application errors come back as kindErr frames with a text body; the
// coordinator rethrows them as typed errors.
func (w *Worker) Handle(ctx context.Context, req *rpc.Frame) *rpc.Frame {
	w.mu.Lock()
	defer w.mu.Unlock()
	resp, err := w.handle(req)
	if err != nil {
		return &rpc.Frame{Kind: kindErr, Body: []byte(err.Error())}
	}
	return resp
}

func (w *Worker) handle(req *rpc.Frame) (*rpc.Frame, error) {
	if req.Kind == kindPing {
		return &rpc.Frame{Kind: kindOK}, nil
	}
	if req.Kind < kindReset || req.Kind > kindCompute {
		return nil, fmt.Errorf("cluster: unknown frame kind %d", req.Kind)
	}
	epoch, body, err := splitEpoch(req.Body)
	if err != nil {
		return nil, err
	}
	if epoch < w.epoch {
		return nil, fmt.Errorf("%w: frame kind %d epoch %d, session epoch %d", errStaleEpoch, req.Kind, epoch, w.epoch)
	}
	switch req.Kind {
	case kindReset:
		w.epoch, w.sess = epoch, nil
		return &rpc.Frame{Kind: kindOK}, nil
	case kindQuery:
		name, dom, err := decodeQuery(body)
		if err != nil {
			return nil, err
		}
		sess, err := newSession(name, dom)
		if err != nil {
			return nil, err
		}
		w.epoch, w.sess = epoch, sess
		return &rpc.Frame{Kind: kindOK}, nil
	}
	if w.sess == nil || epoch != w.epoch {
		return nil, fmt.Errorf("cluster: frame kind %d before session setup", req.Kind)
	}
	switch req.Kind {
	case kindLoad:
		if err := w.sess.load(req.A, body); err != nil {
			return nil, err
		}
		return &rpc.Frame{Kind: kindOK}, nil
	case kindStore:
		if err := w.sess.store(req.A, req.B, body); err != nil {
			return nil, err
		}
		return &rpc.Frame{Kind: kindOK}, nil
	default: // kindCompute
		out, err := w.sess.compute(req.A, int(req.B), body)
		if err != nil {
			return nil, err
		}
		return &rpc.Frame{Kind: kindRel, Body: out}, nil
	}
}

// session is the type-erased per-semiring worker state; one is built
// per kindQuery from the wire-carried semiring name.
type session interface {
	load(node int32, body []byte) error
	store(node, idx int32, body []byte) error
	compute(node int32, children int, keepBody []byte) ([]byte, error)
}

// newSession dispatches the registry semiring name to its typed state.
func newSession(name string, domSize int) (session, error) {
	switch name {
	case "bool":
		return newTypedSession[bool](name, domSize)
	case "count":
		return newTypedSession[int64](name, domSize)
	case "sumproduct", "minplus", "maxtimes":
		return newTypedSession[float64](name, domSize)
	case "f2":
		return newTypedSession[byte](name, domSize)
	default:
		return nil, fmt.Errorf("cluster: unknown semiring %q", name)
	}
}

func newTypedSession[T any](name string, domSize int) (session, error) {
	s, cod, err := Profile[T](name)
	if err != nil {
		return nil, err
	}
	return &typedSession[T]{
		s:      s,
		cod:    cod,
		dom:    domSize,
		shards: make(map[int32]*relation.Relation[T]),
		msgs:   make(map[int32][]*relation.Relation[T]),
	}, nil
}

type typedSession[T any] struct {
	s      semiring.Semiring[T]
	cod    shard.Codec[T]
	dom    int
	shards map[int32]*relation.Relation[T]   // GHD node → local factor shard
	msgs   map[int32][]*relation.Relation[T] // GHD node → routed child slices by index
}

func (t *typedSession[T]) load(node int32, body []byte) error {
	r, err := shard.Decode(t.s, t.cod, body)
	if err != nil {
		return err
	}
	t.shards[node] = r
	return nil
}

func (t *typedSession[T]) store(node, idx int32, body []byte) error {
	r, err := shard.Decode(t.s, t.cod, body)
	if err != nil {
		return err
	}
	slots := t.msgs[node]
	for int(idx) >= len(slots) {
		slots = append(slots, nil)
	}
	slots[idx] = r
	t.msgs[node] = slots
	return nil
}

// compute runs the local half of one star reduction: the pass's node
// evaluator (faq.EvalNode) over the node's shard and its stored message
// slices in child order — the per-node task of faq.SolveGHD restricted
// to this worker's rows.
func (t *typedSession[T]) compute(node int32, children int, keepBody []byte) ([]byte, error) {
	keep, err := decodeVars(keepBody)
	if err != nil {
		return nil, err
	}
	sh, ok := t.shards[node]
	if !ok {
		return nil, fmt.Errorf("cluster: compute on node %d with no loaded shard", node)
	}
	slots := t.msgs[node]
	for i := 0; i < children; i++ {
		if i >= len(slots) || slots[i] == nil {
			return nil, fmt.Errorf("cluster: compute on node %d missing message slice %d/%d", node, i, children)
		}
	}
	// A minimal query context: the evaluator only consults S, Op (always
	// ⊕ — the coordinator rejects VarOps queries), and DomSize.
	q := &faq.Query[T]{S: t.s, DomSize: t.dom}
	out, err := faq.EvalNode(q, sh, slots[:children], keep)
	if err != nil {
		return nil, err
	}
	// The star is done: the shard and slices are dead state.
	delete(t.shards, node)
	delete(t.msgs, node)
	return shard.Encode(out, t.cod), nil
}
