package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/faqs"
	iexec "repro/internal/exec"
	"repro/internal/plan"
)

// serveHTTP drives the real faqd over loopback HTTP with a warm plan
// cache and small inputs, so per-request overhead — JSON decode and
// encode, query build, canonicalize, cache hit, bind, net/http —
// dominates and the kernels do little.
type serveHTTP struct {
	cfg *config
	solvePool
	bodies [][]byte

	child  *daemon
	logf   *os.File
	base   string
	client *http.Client

	reqBytes, respBytes atomic.Int64
}

const faqdCache = 64

func (w *serveHTTP) clients() int { return 2 }

func (w *serveHTTP) targetPID() int {
	if w.child == nil {
		return 0
	}
	return w.child.pid
}

// generate builds the request pool: the four templates in turn, each
// request a fresh renaming with fresh data, pre-encoded.
func (w *serveHTTP) generate() error {
	sz := w.cfg.sz
	rng := rand.New(rand.NewSource(w.cfg.seed ^ 0x68747470)) // "http"
	w.solvePool = solvePool{brute: sz.brute}
	w.bodies = nil
	templates := []string{"path7", "star6", "tree6", "tri-pendant"}
	for i := 0; i < sz.httpPool; i++ {
		sh := rename(templateShape(templates[i%len(templates)]), rng, fmt.Sprintf("r%d_", i))
		spec := fill(sh, "count", sz.httpN, sz.httpN, rng, false)
		body, err := json.Marshal(spec.wire())
		if err != nil {
			return err
		}
		w.specs = append(w.specs, spec)
		w.bodies = append(w.bodies, body)
	}
	w.seq = allIndices(len(w.specs))
	return nil
}

func (w *serveHTTP) setUp(ctx context.Context) error {
	if err := w.generate(); err != nil {
		return err
	}
	if err := w.boot(ctx); err != nil {
		return err
	}
	// Warm-up: every body once, which fills the plan cache and opens
	// both keep-alive connections' worth of server state.
	for idx := range w.bodies {
		if _, _, err := w.post(ctx, idx); err != nil {
			return fmt.Errorf("warm-up request %d: %w", idx, err)
		}
	}
	runtime.GC()
	return nil
}

// faqdBinary returns the daemon to spawn, building it when the caller
// did not supply one (run.sh does; `go run ./bench` alone does not).
func (w *serveHTTP) faqdBinary(ctx context.Context) (string, error) {
	if w.cfg.faqd != "" {
		return w.cfg.faqd, nil
	}
	if err := os.MkdirAll(w.cfg.outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(w.cfg.outDir, "faqd"))
	if err != nil {
		return "", err
	}
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/faqd")
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building faqd: %w\n%s", err, out)
	}
	w.cfg.faqd = bin
	return bin, nil
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before faqd binds it; the readiness poll catches a lost race.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func (w *serveHTTP) boot(ctx context.Context) error {
	bin, err := w.faqdBinary(ctx)
	if err != nil {
		return err
	}
	port, err := freePort()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(w.cfg.outDir, 0o755); err != nil {
		return err
	}
	w.logf, err = os.Create(filepath.Join(w.cfg.outDir, "faqd-stderr.log"))
	if err != nil {
		return err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-cache", fmt.Sprint(faqdCache), "-workers", fmt.Sprint(engineWorkers))
	cmd.Stdout, cmd.Stderr = w.logf, w.logf
	if w.child, err = startDaemon(cmd); err != nil {
		return fmt.Errorf("starting faqd: %w", err)
	}
	w.base = "http://" + addr
	w.client = &http.Client{
		Transport: &http.Transport{MaxIdleConns: w.clients(), MaxIdleConnsPerHost: w.clients(), MaxConnsPerHost: w.clients()},
		Timeout:   30 * time.Second,
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := w.client.Get(w.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("faqd at %s not ready within 10s (last error: %v; see %s)", addr, err, w.logf.Name())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// tearDown kills and reaps the daemon. It is deferred by the harness and
// registered with the signal handler, so it runs on every exit path.
func (w *serveHTTP) tearDown() {
	if w.child != nil {
		w.child.kill()
		w.child = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.logf != nil {
		w.logf.Close()
		w.logf = nil
	}
}

// post sends body idx to /solve. Non-2xx and connection errors are
// failed operations.
func (w *serveHTTP) post(ctx context.Context, idx int) (*answer, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/solve", bytes.NewReader(w.bodies[idx]))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("faqd answered %d: %.200s", resp.StatusCode, data)
	}
	w.reqBytes.Add(int64(len(w.bodies[idx])))
	w.respBytes.Add(int64(len(data)))
	var wa faqs.WireAnswer
	if err := json.Unmarshal(data, &wa); err != nil {
		return nil, 0, fmt.Errorf("decoding response: %w", err)
	}
	return &answer{Schema: wa.Schema, Tuples: wa.Tuples, Values: wa.Values}, d, nil
}

func (w *serveHTTP) do(ctx context.Context, _, i int) (time.Duration, error) {
	idx := w.seq[i]
	got, d, err := w.post(ctx, idx)
	if err != nil {
		return 0, err
	}
	if !w.refs[idx].matches(got) {
		return 0, fmt.Errorf("request %d: answer %s differs from reference %s", idx, got.digest(), w.refs[idx].ans.digest())
	}
	return d, nil
}

// traced replays what faqd does to a request in this process, one
// public call at a time — the daemon is a child process, so no span can
// be recorded inside it — and then sends the same requests to the real
// daemon: what the HTTP round trip costs beyond the in-process whole is
// the residual attributed to net/http, the kernel and the scheduler.
func (w *serveHTTP) traced(ctx context.Context, rec *recorder) (map[string]float64, int, int, error) {
	ops := min(w.cfg.sz.tracedOps, 300)
	prev := faqs.SetDefaultWorkers(engineWorkers) // what `faqd -workers 2` does
	defer faqs.SetDefaultWorkers(prev)
	twin := faqs.NewEngine(faqs.WithPlanCache(faqdCache))
	defer twin.Close()
	cache, pool := plan.NewCache(faqdCache), iexec.Default()

	// decode and encode exactly as cmd/faqd does: a streaming decoder
	// into faqs.WireRequest, an indenting encoder of faqs.WireAnswer.
	decode := func(idx int) (*faqs.WireRequest, error) {
		var wr faqs.WireRequest
		err := json.NewDecoder(bytes.NewReader(w.bodies[idx])).Decode(&wr)
		return &wr, err
	}
	encode := func(wa *faqs.WireAnswer) error {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		return enc.Encode(wa)
	}
	ts := &tracedSolve{
		ops: ops, seq: w.seq, warm: w.seq, refs: w.refs,
		whole: func(ctx context.Context, idx int) (*answer, error) {
			wr, err := decode(idx)
			if err != nil {
				return nil, err
			}
			wa, err := twin.SolveWire(ctx, wr)
			if err != nil {
				return nil, err
			}
			if err := encode(wa); err != nil {
				return nil, err
			}
			return &answer{Schema: wa.Schema, Tuples: wa.Tuples, Values: wa.Values}, nil
		},
		parts: func(ctx context.Context, rec *recorder, parent, op, idx int) (replayResult, error) {
			id := rec.begin("faqd.json_decode", op, parent)
			wr, err := decode(idx)
			rec.end(id)
			if err != nil {
				return replayResult{}, err
			}
			id = rec.begin("faqs.build_query", op, parent)
			_, err = faqs.BuildWireQuery(wr)
			rec.end(id)
			if err != nil {
				return replayResult{}, err
			}
			rr, err := w.internals[idx].replay(ctx, rec, parent, op, cache, pool, nil)
			if err != nil {
				return rr, err
			}
			wa := &faqs.WireAnswer{Schema: rr.ans.Schema, Tuples: rr.ans.Tuples, Values: rr.ans.Values}
			id = rec.begin("faqd.json_encode", op, parent)
			err = encode(wa)
			rec.end(id)
			return rr, err
		},
	}
	// The twin's plan cache is warmed by the driver's untraced pass only
	// if every shape occurs in it; warm it explicitly.
	for idx := range w.bodies[:min(len(w.bodies), 8)] {
		if _, err := ts.whole(ctx, idx); err != nil {
			return nil, 0, 0, err
		}
	}
	out, err := ts.run(ctx, rec)
	if err != nil {
		return nil, 0, 0, err
	}

	// The real daemon, one connection, same requests.
	w.reqBytes.Store(0)
	w.respBytes.Store(0)
	var httpMS []float64
	for k := 0; k < ops; k++ {
		idx := w.seq[k%len(w.seq)]
		id := rec.begin("http", k, -1)
		got, d, err := w.post(ctx, idx)
		rec.end(id)
		out.attempted++
		if err != nil || !w.refs[idx].matches(got) {
			out.failed++
			continue
		}
		httpMS = append(httpMS, float64(d.Nanoseconds())/1e6)
	}
	sort.Float64s(httpMS)
	sort.Float64s(out.wholeMS)
	residualMS := percentile(httpMS, 50) - percentile(out.wholeMS, 50)

	m := out.common(ops, map[string]int64{"faqd": int64(residualMS * 1e6 * float64(ops))})
	n := float64(ops)
	m["faqd.json_decode_ms_per_op"] = float64(out.sum.byName["faqd.json_decode"]) / 1e6 / n
	m["faqd.json_encode_ms_per_op"] = float64(out.sum.byName["faqd.json_encode"]) / 1e6 / n
	m["faqs.build_query_ms_per_op"] = float64(out.sum.byName["faqs.build_query"]) / 1e6 / n
	m["faqd.request_bytes_per_op"] = float64(w.reqBytes.Load()) / float64(max(len(httpMS), 1))
	m["faqd.response_bytes_per_op"] = float64(w.respBytes.Load()) / float64(max(len(httpMS), 1))
	m["faqd.http_residual_ms_per_op"] = residualMS
	m["wire_bytes_per_op"] = m["faqd.request_bytes_per_op"] + m["faqd.response_bytes_per_op"]

	k, err := kernelsOf(w.internals)
	if err != nil {
		return nil, 0, 0, err
	}
	k.metrics(m)
	return m, out.attempted, out.failed, nil
}
