// Command faqd is the FAQ query server: a thin HTTP shell over the
// public faqs.Engine, so the daemon and the embedded library share one
// execution path (fingerprint → cached plan → bind → GHD pass). Plans
// compile once per query shape (variable-renaming-invariant
// fingerprinting, singleflight) and every request binds the cached plan
// to its own factor data.
//
// Endpoints:
//
//	POST /solve   — solve one faqs.WireRequest, returns the answer plus
//	                serving metadata; the plan fingerprint and cache
//	                hit/miss also travel as X-Faqs-Plan-Fingerprint and
//	                X-Faqs-Plan-Cache response headers
//	POST /explain — compile/fetch the plan only: GHD tree, y(H)/n₂(H)/
//	                width/depth, per-node bounds, fingerprint, hit/miss
//	GET  /stats   — cache and service counters (including shed /
//	                deadline-exceeded / recovered-panic degradation
//	                counters), resident plan table
//	GET  /metrics — Prometheus text exposition (version 0.0.4): service
//	                request/latency families per semiring, plan-cache,
//	                exec-pool, failpoint, and delta counters, Go runtime
//	                gauges, and faqd's own HTTP counters
//	GET  /debug/trace — JSON array of the most recent solve traces
//	                (?n=, default 20): per-phase and per-GHD-node spans
//	                with measured durations
//	GET  /healthz — readiness: 200 while serving, 503 while draining
//
// Every request is access-logged (structured, log/slog) and counted
// into faqd_http_requests_total{path,code}.
//
// Status-code contract for solve failures (see README, Operations):
// 429 budget admission rejection (retrying unchanged cannot succeed),
// 503 transient — overloaded, deadline exceeded, or draining — with a
// Retry-After header, 500 recovered internal panic, 422 invalid query.
//
// SIGINT/SIGTERM starts a graceful shutdown: the listener closes (new
// connections refused, /healthz already reports not-ready), in-flight
// requests drain up to -drain, then remaining request contexts are
// canceled. While draining, work-accepting endpoints (/solve,
// /materialize, /update) answer 503 immediately, but the observability
// surface (/metrics, /stats, /debug/trace) keeps serving so the final
// scrape of a terminating instance still lands.
//
// Usage:
//
//	faqd -addr :8080 -cache 256 -workers 0 -budget 0 \
//	     -deadline 30s -inflight 0 -drain 10s
//
// Passing a comma-separated host:port list to -workers instead of an
// integer turns on distributed execution over a faqw shard-worker
// fleet (see README, Cluster operations): eligible solves scatter
// hash-partitioned factors across the fleet and gather per-worker
// partial aggregates; everything else falls back to the local pass
// with identical answers.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/faqs"
)

// maxRequestBytes bounds every request body (64 MiB: ~1M tuples of arity 8).
const maxRequestBytes = 64 << 20

// retryAfterSeconds is the backoff hint sent with every 503 (a hint to
// clients, not a promise).
const retryAfterSeconds = 1

// solveFailpoint is the daemon's own chaos site, hit at the top of
// every /solve request — the outermost layer of the sweep, registered
// through the faqs façade (cmd/ may only import faqs).
var solveFailpoint = faqs.RegisterFailpoint("faqd.solve")

type server struct {
	engine   *faqs.Engine
	started  time.Time
	draining atomic.Bool
	log      *slog.Logger
	requests *faqs.CounterVec // faqd_http_requests_total{path,code}

	// mats holds the named materialized views served by /materialize
	// and /update. The mutex guards only the map; each view handles its
	// own update serialization.
	matsMu sync.Mutex
	mats   map[string]*faqs.Materialized
}

func newServer(opts ...faqs.Option) *server {
	s := &server{
		engine:  faqs.NewEngine(opts...),
		started: time.Now(),
		log:     slog.Default(),
		mats:    make(map[string]*faqs.Materialized),
	}
	s.requests = s.engine.Metrics().NewCounterVec("faqd_http_requests_total",
		"HTTP requests served, by endpoint path and status code.", "path", "code")
	return s
}

// mux wires the handler table (shared with the handler tests).
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/materialize", s.handleMaterialize)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// knownPaths bounds the path label's cardinality: anything outside the
// handler table (404 probes, scanners) counts as "other" instead of
// minting one child per probed URL.
var knownPaths = map[string]bool{
	"/solve": true, "/explain": true, "/materialize": true, "/update": true,
	"/stats": true, "/metrics": true, "/debug/trace": true, "/healthz": true,
}

// statusWriter captures the response status and size for the access
// log and request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

// handler wraps the mux with the access log and the per-endpoint
// request counter — every response passes through here, including
// error paths, so the counter and the log agree.
func (s *server) handler() http.Handler {
	mux := s.mux()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		mux.ServeHTTP(sw, r)
		path := r.URL.Path
		if !knownPaths[path] {
			path = "other"
		}
		s.requests.With(path, strconv.Itoa(sw.status)).Inc()
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"dur_ms", float64(time.Since(t0).Microseconds())/1000.0,
			"remote", r.RemoteAddr,
		)
	})
}

// handleHealthz is the load-balancer readiness probe: a draining server
// answers 503 so traffic routes elsewhere while in-flight requests
// finish.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache", 0, "plan cache capacity in compiled query shapes (0 = default)")
	workers := flag.String("workers", "0", "local exec pool workers (integer, 0 = GOMAXPROCS), or a comma-separated faqw fleet (host:port,...) for distributed execution")
	budget := flag.Int64("budget", 0, "per-request memory budget in bytes for admission control (0 = unlimited)")
	deadline := flag.Duration("deadline", 30*time.Second, "per-request solve deadline (0 = none)")
	inflight := flag.Int("inflight", 0, "max concurrent solves before shedding with 503 (0 = unlimited)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout for in-flight requests")
	flag.Parse()
	opts := []faqs.Option{
		faqs.WithPlanCache(*cacheSize),
		faqs.WithMemoryBudget(*budget),
		faqs.WithDeadline(*deadline),
		faqs.WithMaxInFlight(*inflight),
	}
	// -workers is overloaded: a plain integer sizes the in-process exec
	// pool (the historical meaning), while anything with a ':' or ',' is
	// a faqw worker address list and turns on cluster execution.
	var clusterAddrs []string
	if strings.ContainsAny(*workers, ":,") {
		for _, a := range strings.Split(*workers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				clusterAddrs = append(clusterAddrs, a)
			}
		}
		if len(clusterAddrs) == 0 {
			fmt.Fprintf(os.Stderr, "faqd: -workers %q has no usable addresses\n", *workers)
			os.Exit(2)
		}
		opts = append(opts, faqs.WithClusterWorkers(clusterAddrs...))
	} else {
		n, err := strconv.Atoi(*workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faqd: -workers must be an integer or host:port,... list: %v\n", err)
			os.Exit(2)
		}
		if n > 0 {
			faqs.SetDefaultWorkers(n)
		}
	}
	srv := newServer(opts...)
	defer srv.engine.Close()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv.log = logger
	if len(clusterAddrs) > 0 {
		// Startup handshake: every worker must answer a ping before the
		// daemon takes traffic. The transport already retries connection
		// refused with backoff, so worker launch order does not matter.
		pingCtx, cancelPing := context.WithTimeout(context.Background(), 30*time.Second)
		err := srv.engine.PingCluster(pingCtx)
		cancelPing()
		if err != nil {
			fmt.Fprintf(os.Stderr, "faqd: cluster handshake failed: %v\n", err)
			os.Exit(1)
		}
		logger.Info("faqd: cluster handshake complete", "workers", len(clusterAddrs))
	}
	logger.Info("faqd: listening",
		"addr", *addr,
		"cache_plans", srv.engine.Stats().Cache.Capacity,
		"workers", *workers,
		"budget", *budget,
		"deadline", *deadline,
		"inflight", *inflight,
	)
	// Header/idle timeouts bound slow-loris connections; request bodies
	// are already capped by MaxBytesReader. Solve time is bounded by the
	// per-request deadline riding the request context (-deadline), which
	// subsumes a WriteTimeout without killing the connection mid-write.
	baseCtx, cancelInFlight := context.WithCancel(context.Background())
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		cancelInFlight()
		fmt.Fprintf(os.Stderr, "faqd: %v\n", err)
		os.Exit(1)
	case <-sigCtx.Done():
	}
	stop() // a second signal kills the process the default way
	srv.draining.Store(true)
	logger.Info("faqd: shutdown signal received, draining in-flight requests", "drain", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	err := httpSrv.Shutdown(shutCtx)
	cancel()
	cancelInFlight() // past the drain window: cancel whatever is still solving
	if err != nil {
		logger.Warn("faqd: drain timeout exceeded, closing", "err", err)
		_ = httpSrv.Close()
	}
	logger.Info("faqd: shutdown complete")
}

type wireError struct {
	Error string `json:"error"`
}

// readBody reads one bounded POST body into decode, answering 405 or
// 400 itself and reporting whether decode succeeded. Every handler that
// takes a body reads it this way. The body is read whole and decoded in
// one piece, so input after the top-level JSON value is an error: a
// json.Decoder would stop after the first value and accept the rest.
func readBody(w http.ResponseWriter, r *http.Request, decode func([]byte) error) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return false
	}
	var body bytes.Buffer
	body.Grow(int(max(0, min(r.ContentLength, maxRequestBytes))) + bytes.MinRead)
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err == nil {
		err = decode(body.Bytes())
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

// planHeaders surfaces the serving metadata every response carries.
func planHeaders(w http.ResponseWriter, fingerprint string, cacheHit bool) {
	w.Header().Set("X-Faqs-Plan-Fingerprint", fingerprint)
	if cacheHit {
		w.Header().Set("X-Faqs-Plan-Cache", "hit")
	} else {
		w.Header().Set("X-Faqs-Plan-Cache", "miss")
	}
}

// rejectDraining answers 503 on work-accepting endpoints while the
// server drains (the observability endpoints bypass it). Reports
// whether the request was rejected.
func (s *server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	httpError(w, http.StatusServiceUnavailable, fmt.Errorf("faqd: draining"))
	return true
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	var wr faqs.WireRequest
	if !readBody(w, r, wr.UnmarshalJSON) {
		return
	}
	if err := solveFailpoint.Hit(r.Context()); err != nil {
		solveError(w, err)
		return
	}
	// Per-request cancellation: client disconnect (and the engine's
	// per-request deadline) stops the GHD pass.
	wa, err := s.engine.SolveWire(r.Context(), &wr)
	if err != nil {
		solveError(w, err)
		return
	}
	planHeaders(w, wa.PlanHash, wa.CacheHit)
	writeJSON(w, http.StatusOK, wa)
}

func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var wr faqs.WireRequest
	if !readBody(w, r, wr.UnmarshalJSON) {
		return
	}
	q, err := faqs.BuildWireQuery(&wr)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	ex, err := s.engine.Explain(q)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	planHeaders(w, ex.Fingerprint, ex.CacheHit)
	writeJSON(w, http.StatusOK, ex)
}

// handleMaterialize registers a named standing view: build the query
// like /solve, materialize it, and answer with the initial result.
// Duplicate names are 409 (the existing view keeps serving).
func (s *server) handleMaterialize(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	var mr faqs.WireMaterializeRequest
	if !readBody(w, r, func(b []byte) error { return json.Unmarshal(b, &mr) }) {
		return
	}
	if mr.Name == "" {
		httpError(w, http.StatusUnprocessableEntity, fmt.Errorf("materialize: empty view name"))
		return
	}
	m, err := s.engine.MaterializeWire(r.Context(), &mr.Request)
	if err != nil {
		solveError(w, err)
		return
	}
	s.matsMu.Lock()
	if _, exists := s.mats[mr.Name]; exists {
		s.matsMu.Unlock()
		m.Close()
		httpError(w, http.StatusConflict, fmt.Errorf("materialize: view %q already exists", mr.Name))
		return
	}
	s.mats[mr.Name] = m
	s.matsMu.Unlock()
	wa, err := faqs.RenderMaterialized(mr.Name, m)
	if err != nil {
		solveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wa)
}

// handleUpdate applies one insert/delete batch against a named view and
// answers with the freshly maintained result (or closes the view).
// Unknown names are 404; a failed update leaves the view unchanged and
// maps onto the same HTTP contract as /solve.
func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	var ur faqs.WireUpdateRequest
	if !readBody(w, r, func(b []byte) error { return json.Unmarshal(b, &ur) }) {
		return
	}
	s.matsMu.Lock()
	m, ok := s.mats[ur.Name]
	if ok && ur.Close {
		delete(s.mats, ur.Name)
	}
	s.matsMu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("update: no view named %q", ur.Name))
		return
	}
	if ur.Close {
		strategy := m.Strategy()
		m.Close()
		writeJSON(w, http.StatusOK, faqs.WireMaterializedAnswer{Name: ur.Name, Strategy: strategy, Closed: true})
		return
	}
	if err := m.Update(r.Context(), ur.Factor, ur.Inserts, ur.Deletes); err != nil {
		solveError(w, err)
		return
	}
	wa, err := faqs.RenderMaterialized(ur.Name, m)
	if err != nil {
		solveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wa)
}

// solveError maps a serving failure onto the HTTP contract and writes
// it, attaching Retry-After to transient (503) rejections.
func solveError(w http.ResponseWriter, err error) {
	code := solveErrorStatus(err)
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	httpError(w, code, err)
}

// solveErrorStatus classifies serving failures: budget admission
// rejections are 429 (the request itself is too big — retrying
// unchanged cannot succeed), overload shedding, deadline hits, and an
// unreachable worker fleet are transient 503s worth retrying after
// backoff (workers are stateless, so a restarted fleet serves the
// retry), recovered panics and injected faults are 500s, and
// everything else is an unprocessable request.
func solveErrorStatus(err error) int {
	switch {
	case errors.Is(err, faqs.ErrOverBudget):
		return http.StatusTooManyRequests
	case errors.Is(err, faqs.ErrInternal), errors.Is(err, faqs.ErrInjected):
		return http.StatusInternalServerError
	case errors.Is(err, faqs.ErrOverloaded), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, faqs.ErrClusterUnavailable):
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

type statsPayload struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	Draining      bool    `json:"draining"`
	faqs.Stats
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsPayload{
		UptimeSeconds: time.Since(s.started).Seconds(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Draining:      s.draining.Load(),
		Stats:         s.engine.Stats(),
	})
}

// handleMetrics serves the Prometheus text exposition. It deliberately
// skips the draining check: the last scrape of a terminating instance
// is the one that records the drain.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	w.Header().Set("Content-Type", faqs.MetricsContentType)
	if err := s.engine.WriteMetrics(w); err != nil {
		// Headers are already sent; all we can do is log the short write.
		s.log.Error("metrics write failed", "err", err)
	}
}

// handleTrace serves the engine's recent solve traces as JSON, newest
// first (?n= bounds the count, default 20).
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", v))
			return
		}
		n = p
	}
	traces := s.engine.RecentTraces(n)
	if traces == nil {
		traces = []faqs.Trace{} // an empty buffer serializes as [], not null
	}
	writeJSON(w, http.StatusOK, traces)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, wireError{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(payload)
}
