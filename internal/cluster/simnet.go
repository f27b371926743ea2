package cluster

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/topology"
)

// DefaultSimBitsPerRound is the per-link round capacity of SimTransport
// when the caller does not choose one — wide enough that header frames
// fit in a round, narrow enough that relation payloads span several, so
// simulated round counts stay informative.
const DefaultSimBitsPerRound = 1 << 13

// SimTransport is the in-process test double of the TCP transport: the
// same frames the coordinator would put on the wire are booked on a
// netsim ledger over a star topology (coordinator at the hub, workers
// at the leaves) and handed to in-process Workers. The differential
// harness runs one workload through both transports and asserts the
// frame streams and answers agree.
type SimTransport struct {
	workers []*Worker
	mu      sync.Mutex
	net     *netsim.Network
	out, in atomic.Int64
}

// NewSimTransport returns a simulated cluster of the given size.
// bitsPerRound ≤ 0 selects DefaultSimBitsPerRound.
func NewSimTransport(workers, bitsPerRound int) (*SimTransport, error) {
	if bitsPerRound <= 0 {
		bitsPerRound = DefaultSimBitsPerRound
	}
	net, err := netsim.New(topology.Star(workers+1), bitsPerRound)
	if err != nil {
		return nil, err
	}
	ws := make([]*Worker, workers)
	for i := range ws {
		ws[i] = NewWorker()
	}
	return &SimTransport{workers: ws, net: net}, nil
}

func (t *SimTransport) Workers() int { return len(t.workers) }

func (t *SimTransport) Bytes() (out, in int64) { return t.out.Load(), t.in.Load() }

func (t *SimTransport) RoundTrip(ctx context.Context, worker int, req *rpc.Frame) (*rpc.Frame, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	hub, leaf := 0, worker+1
	t.mu.Lock()
	_, err := t.net.SendBits(hub, leaf, 0, req.WireBytes()*8)
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	t.out.Add(int64(req.WireBytes()))
	resp := t.workers[worker].Handle(ctx, req)
	t.mu.Lock()
	_, err = t.net.SendBits(leaf, hub, 0, resp.WireBytes()*8)
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	t.in.Add(int64(resp.WireBytes()))
	return resp, nil
}

func (t *SimTransport) Close() error { return nil }
