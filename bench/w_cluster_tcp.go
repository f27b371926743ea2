package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/faqs"
	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/rpc"
)

// clusterTCP runs the distributed engine on real loopback sockets: two
// in-process shard workers, one coordinator engine, two clients — so the
// coordinator's solve mutex is visible. Split, encode, wire, worker
// compute, decode and merge dominate, and it is the only workload that
// moves cluster bytes, reported next to the paper-model protocol cost.
// The pool cycles, so about 95 % of operations resend factor content an
// earlier operation already sent.
type clusterTCP struct {
	cfg *config
	solvePool
	workers []*faqs.WorkerServer
	addrs   []string
}

const fleetWorkers = 2

func (w *clusterTCP) clients() int { return 2 }

func (w *clusterTCP) setUp(ctx context.Context) error {
	sz := w.cfg.sz
	rng := rand.New(rand.NewSource(w.cfg.seed ^ 0x636c7573)) // "clus"
	w.solvePool = solvePool{brute: sz.brute}
	for _, tpl := range []string{"path7", "star6", "tree6"} {
		sh := templateShape(tpl)
		for _, sem := range []string{"count", "bool"} {
			qsh := sh
			if sem == "bool" {
				qsh.Free = nil
			}
			for d := 0; d < sz.clusterDatasets; d++ {
				w.specs = append(w.specs, fill(qsh, sem, sz.clusterN, sz.clusterDom, rng, false))
			}
		}
	}
	w.seq = rng.Perm(len(w.specs))
	if err := w.build(); err != nil {
		return err
	}
	w.addrs = nil
	for i := 0; i < fleetWorkers; i++ {
		srv, err := faqs.ServeWorker("127.0.0.1:0")
		if err != nil {
			return err
		}
		w.workers = append(w.workers, srv)
		w.addrs = append(w.addrs, srv.Addr())
	}
	w.engine = faqs.NewEngine(faqs.WithClusterWorkers(w.addrs...), faqs.WithWorkers(engineWorkers))
	if err := w.engine.PingCluster(ctx); err != nil {
		return fmt.Errorf("fleet handshake: %w", err)
	}
	if err := w.warm(ctx, w.seq); err != nil {
		return err
	}
	runtime.GC()
	return nil
}

func (w *clusterTCP) tearDown() {
	w.closeEngine()
	for _, srv := range w.workers {
		srv.Close()
	}
	w.workers = nil
}

// spanTransport wraps a cluster transport so every frame exchange is a
// span under the solve that caused it, and keeps the frame sizes.
type spanTransport struct {
	cluster.Transport

	mu     sync.Mutex
	frames []int // request + response wire bytes per exchange
}

func (t *spanTransport) RoundTrip(ctx context.Context, worker int, req *rpc.Frame) (*rpc.Frame, error) {
	ref, ok := spanFrom(ctx)
	if !ok {
		return t.Transport.RoundTrip(ctx, worker, req)
	}
	id := ref.rec.begin("rpc.roundtrip", ref.op, ref.id)
	resp, err := t.Transport.RoundTrip(ctx, worker, req)
	ref.rec.end(id)
	if err == nil {
		t.mu.Lock()
		t.frames = append(t.frames, req.WireBytes(), resp.WireBytes())
		t.mu.Unlock()
	}
	return resp, err
}

// echoRoundTripUS is the median rpc.Conn.RoundTrip against an echo
// handler at the given body size: the transport's floor per frame.
func echoRoundTripUS(ctx context.Context, body int) (float64, error) {
	srv, err := rpc.Serve("127.0.0.1:0", func(_ context.Context, req *rpc.Frame) *rpc.Frame { return req })
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	conn, err := rpc.Dial(ctx, srv.Addr(), 10*time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	frame := &rpc.Frame{Kind: 1, Body: make([]byte, body)}
	var us []float64
	for i := 0; i < 220; i++ {
		t0 := time.Now()
		if _, err := conn.RoundTrip(ctx, frame); err != nil {
			return 0, err
		}
		if i >= 20 { // the first exchanges warm the connection
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(us), nil
}

func (w *clusterTCP) traced(ctx context.Context, rec *recorder) (map[string]float64, int, int, error) {
	ops := min(w.cfg.sz.tracedOps, 300)

	tcp, err := cluster.NewTCPTransport(w.addrs, cluster.TCPOptions{})
	if err != nil {
		return nil, 0, 0, err
	}
	st := &spanTransport{Transport: tcp}
	replayClient := cluster.NewClient(st, cluster.Options{})
	defer replayClient.Close()
	cache := plan.NewCache(0)

	// Per replayed solve: the coordinator's payload accounting against
	// the closed-form bound — a violation is a failed operation.
	var loadBytes, payloadBytes, boundBytes, phases, frames int64
	violations := 0
	ts := &tracedSolve{
		ops: ops, seq: w.seq, warm: w.seq, refs: w.refs,
		whole: w.solve,
		parts: func(ctx context.Context, rec *recorder, parent, op, idx int) (replayResult, error) {
			before := replayClient.Stats()
			rr, err := w.internals[idx].replay(ctx, rec, parent, op, cache, nil, replayClient)
			if err != nil || op < 0 {
				return rr, err
			}
			after := replayClient.Stats()
			bound, err := w.internals[idx].payloadBound(rr.g, fleetWorkers)
			if err != nil {
				return rr, err
			}
			payload := after.SolvePayloadBytes - before.SolvePayloadBytes
			if payload > bound {
				violations++
			}
			loadBytes += after.LoadPayloadBytes - before.LoadPayloadBytes
			payloadBytes += payload
			boundBytes += bound
			phases += after.Phases - before.Phases
			frames += after.Frames - before.Frames
			return rr, nil
		},
	}
	engineBefore, _ := w.engine.ClusterStats()
	out, err := ts.run(ctx, rec)
	if err != nil {
		return nil, 0, 0, err
	}
	engineAfter, _ := w.engine.ClusterStats()
	out.failed += violations

	m := out.common(ops, nil)
	n := float64(ops)
	// Socket bytes of the engine's own coordinator over both passes.
	m["wire_bytes_per_op"] = float64(engineAfter.WireOutBytes+engineAfter.WireInBytes-
		engineBefore.WireOutBytes-engineBefore.WireInBytes) / (2 * n)
	m["cluster.load_bytes_per_op"] = float64(loadBytes) / n
	m["cluster.solve_payload_bytes_per_op"] = float64(payloadBytes) / n
	m["cluster.payload_bound_bytes_per_op"] = float64(boundBytes) / n
	m["cluster.bound_slack"] = float64(payloadBytes) / float64(max(boundBytes, 1))
	m["cluster.phases_per_op"] = float64(phases) / n
	m["rpc.frames_per_op"] = float64(frames) / n
	// The solve span's full duration, round trips included.
	spans := rec.snapshot()
	var tcpMS []float64
	for _, s := range spans {
		if s.Name == "cluster.solve" && s.Op >= 0 {
			tcpMS = append(tcpMS, float64(s.End-s.Start)/1e6)
		}
	}
	sort.Float64s(tcpMS)

	// Every distinct query once more: on the simulated transport (same
	// frames, no sockets), locally, through the paper-model protocol,
	// and through the shard codec.
	sim, err := cluster.NewSimTransport(fleetWorkers, 0)
	if err != nil {
		return nil, 0, 0, err
	}
	simClient := cluster.NewClient(sim, cluster.Options{})
	var simMS, localMS []float64
	var rounds, bits int64
	var split, encode, decode time.Duration
	for idx, iq := range w.internals {
		g, err := iq.planGHD()
		if err != nil {
			return nil, 0, 0, err
		}
		t0 := time.Now()
		got, err := iq.clusterSolve(ctx, simClient, g)
		simMS = append(simMS, float64(time.Since(t0).Nanoseconds())/1e6)
		out.attempted++
		if err != nil || !w.refs[idx].matches(got) {
			out.failed++
		}
		ns, _, err := iq.solveOn(g, engineWorkers)
		if err != nil {
			return nil, 0, 0, err
		}
		localMS = append(localMS, float64(ns)/1e6)
		r, b, err := iq.protocolCost()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("protocol.Run on query %d: %w", idx, err)
		}
		rounds, bits = rounds+int64(r), bits+b
		sp, en, de, err := iq.shardTimes(fleetWorkers)
		if err != nil {
			return nil, 0, 0, err
		}
		split, encode, decode = split+sp, encode+en, decode+de
	}
	distinct := float64(len(w.internals))
	sort.Float64s(simMS)
	sort.Float64s(localMS)
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(max(len(xs), 1))
	}
	m["cluster.solve_ms_per_op"] = mean(tcpMS)
	m["cluster.sim_solve_ms_per_op"] = mean(simMS)
	m["cluster.wire_ms_per_op"] = mean(tcpMS) - mean(simMS)
	m["cluster.local_ratio"] = percentile(tcpMS, 50) / percentile(localMS, 50)
	m["protocol.rounds_per_op"] = float64(rounds) / distinct
	m["protocol.bits_per_op"] = float64(bits) / distinct
	m["shard.split_ms_per_op"] = float64(split.Nanoseconds()) / 1e6 / distinct
	m["shard.encode_ms_per_op"] = float64(encode.Nanoseconds()) / 1e6 / distinct
	m["shard.decode_ms_per_op"] = float64(decode.Nanoseconds()) / 1e6 / distinct

	st.mu.Lock()
	sizes := append([]int(nil), st.frames...)
	st.mu.Unlock()
	sort.Ints(sizes)
	medianFrame := 0
	if len(sizes) > 0 {
		medianFrame = sizes[len(sizes)/2]
	}
	if m["rpc.roundtrip_us"], err = echoRoundTripUS(ctx, max(medianFrame-rpc.HeaderBytes, 0)); err != nil {
		return nil, 0, 0, err
	}

	// cluster.serial_ratio: throughput with two clients over one. A
	// ratio near 1 is the coordinator's solve mutex.
	if m["cluster.serial_ratio"], err = w.serialRatio(ctx, ops); err != nil {
		return nil, 0, 0, err
	}

	k, err := kernelsOf(w.internals)
	if err != nil {
		return nil, 0, 0, err
	}
	k.metrics(m)
	return m, out.attempted, out.failed, nil
}

func (w *clusterTCP) serialRatio(ctx context.Context, ops int) (float64, error) {
	throughput := func(clients int) (float64, error) {
		var wg sync.WaitGroup
		errs := make([]error, clients)
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := c; k < ops; k += clients {
					if _, err := w.solve(ctx, w.seq[k%len(w.seq)]); err != nil {
						errs[c] = err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return float64(ops) / time.Since(t0).Seconds(), nil
	}
	one, err := throughput(1)
	if err != nil {
		return 0, err
	}
	two, err := throughput(2)
	if err != nil {
		return 0, err
	}
	return two / one, nil
}
