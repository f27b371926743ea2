// Command faqload is the deterministic load generator for the query
// service layer: it drives a mixed-shape Count-semiring workload —
// several query templates, each request a freshly renamed variant with
// fresh factor data — through the in-process service (or, with -url, a
// running faqd over HTTP), measures cold-plan vs warm-cache throughput
// and latency percentiles across worker counts, verifies every answer
// bit-identical to a direct per-request faq.Solve (and spot-checks the
// distributed protocol.Run per template), and writes BENCH_service.json.
//
// In -url mode the run is two phases — cold (one request per template,
// plans compile) then warm (cached plans bind to fresh data) — with a
// strict-parsed /metrics scrape at each phase boundary: the report
// folds in the server's own latency quantiles (faq_service_request_ns
// bucket deltas), shed/deadline counters, and fails if the exposition
// is malformed or a key series never moved. The JSON summary goes to
// -out next to the text table.
//
// Cold-plan means the plan cache is dropped before every request, so each
// request pays canonicalization + ghd.Minimize + re-rooting; warm-cache
// compiles each template once and binds thereafter. All randomness is
// seeded: the same flags reproduce the same requests byte for byte.
//
// Usage:
//
//	faqload -out BENCH_service.json -requests 40 -n 512 -workers 1,2,4,8
//	faqload -url http://127.0.0.1:8080 -requests 6 -n 128   # smoke a faqd
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/faqs"
	"repro/internal/cli"
	"repro/internal/exec"
	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/workload"
)

// templates are the mixed query shapes: a long path (the most internal
// nodes of the four), a symmetric star, a
// balanced binary tree, and a cyclic triangle with a pendant edge. Free
// variables sit in a coverable bag, so every shape takes the GHD path.
var templates = []struct {
	name string
	spec string
	free string
}{
	{"path7", "A0,A1;A1,A2;A2,A3;A3,A4;A4,A5;A5,A6;A6,A7", "A0"},
	{"star6", "C,B1;C,B2;C,B3;C,B4;C,B5;C,B6", "C"},
	{"tree6", "R,L;R,T;L,LL;L,LR;T,TL;T,TR", "R"},
	{"tri-pendant", "A,B;B,C;A,C;C,D", "C"},
}

type phaseStats struct {
	Requests      int     `json:"requests"`
	WallNS        int64   `json:"wall_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50NS         int64   `json:"p50_ns"`
	P99NS         int64   `json:"p99_ns"`
	Compiles      int     `json:"compiles"`
	CacheHits     int     `json:"cache_hits"`
}

type workerPoint struct {
	Workers      int        `json:"workers"`
	Cold         phaseStats `json:"cold"`
	Warm         phaseStats `json:"warm"`
	WarmBatch    phaseStats `json:"warm_batch"`
	Speedup      float64    `json:"speedup_warm_over_cold"`
	BitIdentical bool       `json:"bit_identical"`
}

type benchReport struct {
	HostCPUs         int           `json:"host_cpus"`
	GoMaxProcs       int           `json:"gomaxprocs"`
	N                int           `json:"n"`
	Dom              int           `json:"dom"`
	RequestsPerPhase int           `json:"requests_per_phase"`
	Templates        []string      `json:"templates"`
	Methodology      string        `json:"methodology"`
	Points           []workerPoint `json:"points"`
	MinSpeedup       float64       `json:"min_speedup"`
	ProtocolChecked  bool          `json:"protocol_checked"`
}

func main() {
	out := flag.String("out", "BENCH_service.json", "output artifact path")
	requests := flag.Int("requests", 40, "requests per phase")
	n := flag.Int("n", 512, "tuples per factor")
	dom := flag.Int("dom", 0, "domain size (0 = n)")
	workers := flag.String("workers", "1,2,4,8", "comma-separated worker counts")
	seed := flag.Int64("seed", 1, "random seed")
	url := flag.String("url", "", "drive a running faqd over HTTP instead of in-process (smoke mode)")
	checkProto := flag.Bool("verify-protocol", true, "spot-check answers against protocol.Run per template")
	flag.Parse()
	if *url != "" {
		// In -url mode the JSON summary is opt-in: the -out default is
		// the in-process bench artifact, which a smoke must not clobber.
		outSet := false
		flag.Visit(func(f *flag.Flag) { outSet = outSet || f.Name == "out" })
		if !outSet {
			*out = ""
		}
	}
	if err := run(*out, *requests, *n, *dom, *workers, *seed, *url, *checkProto); err != nil {
		fmt.Fprintf(os.Stderr, "faqload: %v\n", err)
		os.Exit(1)
	}
}

// request is one generated workload item: a renamed template instance
// with fresh factor data.
type request struct {
	template int
	q        *faq.Query[int64]
}

// genRequest builds request i deterministically: template round-robin, a
// seeded variable-id permutation (exercising fingerprint invariance), and
// seeded Count factors with values in {1,2,3}.
func genRequest(hs []*hypergraph.Hypergraph, frees [][]int, i, n, dom int, seed int64) request {
	ti := i % len(hs)
	base, baseFree := hs[ti], frees[ti]
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	perm := r.Perm(base.NumVertices())
	h := hypergraph.New(base.NumVertices())
	for _, vs := range base.Edges() {
		nv := make([]int, len(vs))
		for k, v := range vs {
			nv[k] = perm[v]
		}
		h.AddEdge(nv...)
	}
	free := make([]int, len(baseFree))
	for k, v := range baseFree {
		free[k] = perm[v]
	}
	sort.Ints(free)
	s := semiring.Count{}
	factors := make([]*relation.Relation[int64], h.NumEdges())
	for e := range factors {
		b := relation.NewBuilderHint[int64](s, h.Edge(e), n)
		tuple := make([]int, len(h.Edge(e)))
		for t := 0; t < n; t++ {
			for j := range tuple {
				tuple[j] = r.Intn(dom)
			}
			b.Add(tuple, int64(1+r.Intn(3)))
		}
		factors[e] = b.Build()
	}
	return request{template: ti, q: &faq.Query[int64]{S: s, H: h, Factors: factors, Free: free, DomSize: dom}}
}

// bitIdentical: for the exact Count semiring, relation.Equal's
// schema/rows/values comparison is exactly layout identity (the repo's
// determinism invariant keeps equal relations byte-identical).
func bitIdentical(a, b *relation.Relation[int64]) bool {
	if a == nil || b == nil {
		return a == b
	}
	return relation.Equal[int64](semiring.Count{}, a, b)
}

// percentile is the nearest-rank estimator: the smallest sample with at
// least a q fraction of the distribution at or below it (a floor index
// would systematically understate the tail at small sample counts).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func summarize(lats []int64, infos []service.Info) phaseStats {
	st := phaseStats{Requests: len(lats)}
	for _, l := range lats {
		st.WallNS += l
	}
	for _, inf := range infos {
		if inf.CacheHit {
			st.CacheHits++
		} else {
			st.Compiles++
		}
	}
	if st.WallNS > 0 {
		st.ThroughputRPS = float64(st.Requests) / (float64(st.WallNS) / 1e9)
	}
	sorted := append([]int64(nil), lats...)
	slices.Sort(sorted)
	st.P50NS = percentile(sorted, 0.50)
	st.P99NS = percentile(sorted, 0.99)
	return st
}

func run(out string, requests, n, dom int, workerSpec string, seed int64, url string, checkProto bool) error {
	if dom <= 0 {
		dom = n
	}
	var workerCounts []int
	for _, w := range strings.Split(workerSpec, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(w))
		if err != nil || k < 1 {
			return fmt.Errorf("bad -workers entry %q", w)
		}
		workerCounts = append(workerCounts, k)
	}
	hs := make([]*hypergraph.Hypergraph, len(templates))
	frees := make([][]int, len(templates))
	for i, tpl := range templates {
		h, err := cli.ParseQuery(tpl.spec)
		if err != nil {
			return fmt.Errorf("template %s: %w", tpl.name, err)
		}
		hs[i] = h
		// Resolve the free name through a throwaway builder-equivalent
		// parse: vertex ids follow first-use order of the spec.
		id := -1
		for v := 0; v < h.NumVertices(); v++ {
			if h.VertexName(v) == tpl.free {
				id = v
			}
		}
		if id < 0 {
			return fmt.Errorf("template %s: free %q not found", tpl.name, tpl.free)
		}
		frees[i] = []int{id}
	}

	if url != "" {
		return runRemote(url, out, requests, n, dom, seed, hs, frees)
	}

	rep := benchReport{
		HostCPUs:         runtime.NumCPU(),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		N:                n,
		Dom:              dom,
		RequestsPerPhase: requests,
		Methodology: "Mixed-shape Count workload; every request is a seeded variable-renaming of one of the " +
			"templates with fresh factor data. cold: plan cache dropped before each request (every request " +
			"pays canonicalize + ghd.Minimize + re-root). warm: one unmeasured warmup per template, then " +
			"cached plans bind to fresh data. warm_batch: the same warm requests through Service.SolveBatch " +
			"(grouped by plan, executed across the pool). Latency = Service.Solve wall clock in-process; " +
			"verification (excluded from timing) checks every answer bit-identical to per-request faq.Solve " +
			"and, once per template per worker count, to the distributed protocol.Run on a clique:4.",
		ProtocolChecked: checkProto,
	}
	for _, tpl := range templates {
		rep.Templates = append(rep.Templates, tpl.name)
	}

	minSpeedup := 0.0
	reqIdx := 0
	for _, w := range workerCounts {
		prev := exec.SetWorkers(w)
		pt := workerPoint{Workers: w, BitIdentical: true}
		cache := plan.NewCache(plan.DefaultCacheSize)
		sv := service.New[int64](semiring.Count{}, "count", cache)
		ctx := context.Background()

		verifyReq := func(r request, got *relation.Relation[int64], protoDone map[int]bool) error {
			want, err := faq.Solve(r.q)
			if err != nil {
				return err
			}
			if !bitIdentical(got, want) {
				pt.BitIdentical = false
				return fmt.Errorf("workers=%d template=%s: answer not bit-identical to faq.Solve", w, templates[r.template].name)
			}
			if checkProto && protoDone != nil && !protoDone[r.template] {
				protoDone[r.template] = true
				g := topology.Clique(4)
				assign := workload.RoundRobinAssignment(r.q.H.NumEdges(), []int{0, 1, 2, 3})
				setup := &protocol.Setup[int64]{Q: r.q, G: g, Assign: assign, Output: 0}
				pAns, _, err := protocol.Run(setup)
				if err != nil {
					return fmt.Errorf("protocol.Run: %w", err)
				}
				if !bitIdentical(pAns, want) {
					pt.BitIdentical = false
					return fmt.Errorf("workers=%d template=%s: protocol.Run answer differs", w, templates[r.template].name)
				}
			}
			return nil
		}

		// Cold phase: drop the cache before every request.
		coldLats := make([]int64, 0, requests)
		coldInfos := make([]service.Info, 0, requests)
		protoDone := map[int]bool{}
		for i := 0; i < requests; i++ {
			r := genRequest(hs, frees, reqIdx, n, dom, seed)
			reqIdx++
			cache.Reset()
			t0 := time.Now()
			ans, info, err := sv.Solve(ctx, r.q)
			lat := time.Since(t0).Nanoseconds()
			if err != nil {
				return fmt.Errorf("cold solve: %w", err)
			}
			coldLats = append(coldLats, lat)
			coldInfos = append(coldInfos, info)
			if err := verifyReq(r, ans, protoDone); err != nil {
				return err
			}
		}
		pt.Cold = summarize(coldLats, coldInfos)

		// Warm phase: one unmeasured warmup per template, then measure.
		cache.Reset()
		var warmReqs []request
		for i := 0; i < len(templates); i++ {
			r := genRequest(hs, frees, reqIdx, n, dom, seed)
			reqIdx++
			if _, _, err := sv.Solve(ctx, r.q); err != nil {
				return fmt.Errorf("warmup: %w", err)
			}
		}
		warmLats := make([]int64, 0, requests)
		warmInfos := make([]service.Info, 0, requests)
		for i := 0; i < requests; i++ {
			r := genRequest(hs, frees, reqIdx, n, dom, seed)
			reqIdx++
			t0 := time.Now()
			ans, info, err := sv.Solve(ctx, r.q)
			lat := time.Since(t0).Nanoseconds()
			if err != nil {
				return fmt.Errorf("warm solve: %w", err)
			}
			warmLats = append(warmLats, lat)
			warmInfos = append(warmInfos, info)
			warmReqs = append(warmReqs, r)
			if err := verifyReq(r, ans, nil); err != nil { // protocol already spot-checked in the cold phase
				return err
			}
		}
		pt.Warm = summarize(warmLats, warmInfos)

		// Warm batch: the same warm requests through the batching path.
		qs := make([]*faq.Query[int64], len(warmReqs))
		for i, r := range warmReqs {
			qs[i] = r.q
		}
		tb := time.Now()
		answers, binfos, berrs := sv.SolveBatch(ctx, qs)
		batchNS := time.Since(tb).Nanoseconds()
		for i := range qs {
			if berrs[i] != nil {
				return fmt.Errorf("batch request %d: %w", i, berrs[i])
			}
			want, err := faq.Solve(qs[i])
			if err != nil {
				return err
			}
			if !bitIdentical(answers[i], want) {
				pt.BitIdentical = false
				return fmt.Errorf("workers=%d: batch answer %d not bit-identical", w, i)
			}
		}
		// Latency percentiles come from per-request in-batch times;
		// throughput from the whole-batch wall clock.
		batchLats := make([]int64, len(binfos))
		for i, inf := range binfos {
			batchLats[i] = inf.TotalNS
		}
		pt.WarmBatch = summarize(batchLats, binfos)
		pt.WarmBatch.WallNS = batchNS
		if batchNS > 0 {
			pt.WarmBatch.ThroughputRPS = float64(len(qs)) / (float64(batchNS) / 1e9)
		}

		if pt.Cold.ThroughputRPS > 0 {
			pt.Speedup = pt.Warm.ThroughputRPS / pt.Cold.ThroughputRPS
		}
		if minSpeedup == 0 || pt.Speedup < minSpeedup {
			minSpeedup = pt.Speedup
		}
		rep.Points = append(rep.Points, pt)
		exec.SetWorkers(prev)
	}
	rep.MinSpeedup = minSpeedup

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}

	fmt.Printf("service layer throughput (host: %d CPU(s), %d requests/phase, n=%d)\n",
		rep.HostCPUs, requests, n)
	fmt.Printf("%-8s %-12s %-12s %-12s %-10s %-12s %-12s\n",
		"workers", "cold_rps", "warm_rps", "batch_rps", "speedup", "warm_p50_ms", "warm_p99_ms")
	for _, pt := range rep.Points {
		fmt.Printf("%-8d %-12.1f %-12.1f %-12.1f %-10.2f %-12.3f %-12.3f\n",
			pt.Workers, pt.Cold.ThroughputRPS, pt.Warm.ThroughputRPS, pt.WarmBatch.ThroughputRPS,
			pt.Speedup, float64(pt.Warm.P50NS)/1e6, float64(pt.Warm.P99NS)/1e6)
	}
	fmt.Printf("min warm/cold speedup: %.2f×; answers bit-identical at every worker count\n", minSpeedup)
	fmt.Printf("wrote %s\n", out)
	return nil
}

// retryAttempts bounds postRetry: 5 tries spanning ~1.5 s of default
// backoff before giving up on a persistently unavailable server.
const retryAttempts = 5

// startupRetryAttempts is the larger budget for connection-refused
// failures: faqload is routinely launched alongside faqd (make
// smoke-cluster starts both and the daemon additionally handshakes its
// worker fleet before listening), so a refused connection usually means
// "not up yet", not "down".
const startupRetryAttempts = 12

// maxRetryBackoff caps the doubling so the longer startup budget waits
// in steady 2 s steps instead of minutes.
const maxRetryBackoff = 2 * time.Second

// connRefused reports a connection-refused transport failure — the one
// error class where waiting out a server still starting up is the
// expected cure.
func connRefused(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED)
}

// postRetry posts body, retrying transient failures — transport errors
// and 503 responses — with seeded-jitter exponential backoff, honoring
// the server's Retry-After hint when present. Connection-refused gets
// the extended startup budget. Non-transient statuses (429 budget
// rejections cannot succeed unchanged; 4xx/5xx otherwise are the
// caller's to report) return immediately.
func postRetry(client *http.Client, rng *rand.Rand, url string, body []byte) (*http.Response, error) {
	backoff := 100 * time.Millisecond
	for attempt := 1; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err == nil && resp.StatusCode != http.StatusServiceUnavailable {
			return resp, nil
		}
		budget := retryAttempts
		if connRefused(err) {
			budget = startupRetryAttempts
		}
		if attempt >= budget {
			if err != nil {
				return nil, fmt.Errorf("after %d attempts: %w", attempt, err)
			}
			return resp, nil
		}
		// Full jitter in [backoff, 2·backoff); Retry-After overrides when
		// the server knows better.
		wait := backoff + time.Duration(rng.Int63n(int64(backoff)))
		if resp != nil {
			if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs >= 0 {
				wait = time.Duration(secs) * time.Second
			}
			resp.Body.Close()
		}
		time.Sleep(wait)
		if backoff < maxRetryBackoff {
			backoff *= 2
		}
	}
}

// remotePhase is one phase of the remote smoke, with both views of
// latency: the client's wall clock (includes HTTP + JSON) and the
// server's own faq_service_request_ns histogram, estimated from the
// cumulative-bucket delta between the phase-boundary /metrics scrapes.
type remotePhase struct {
	Requests    int     `json:"requests"`
	ClientP50NS int64   `json:"client_p50_ns"`
	ClientP99NS int64   `json:"client_p99_ns"`
	ServerP50NS float64 `json:"server_p50_ns"`
	ServerP99NS float64 `json:"server_p99_ns"`
	ServerCount float64 `json:"server_requests"`
}

// remoteReport is the machine-readable summary of one -url smoke run,
// written to -out alongside the text table.
type remoteReport struct {
	URL              string      `json:"url"`
	Requests         int         `json:"requests"`
	N                int         `json:"n"`
	Cold             remotePhase `json:"cold"`
	Warm             remotePhase `json:"warm"`
	ThroughputRPS    float64     `json:"throughput_rps"`
	Shed             float64     `json:"server_shed"`
	DeadlineExceeded float64     `json:"server_deadline_exceeded"`
	PlanCompiles     int64       `json:"server_plan_compiles"`
	AnswersVerified  bool        `json:"answers_verified"`
}

// metricsScrape GETs the target's /metrics and round-trips it through
// the strict exposition parser — a malformed document fails the smoke.
// The first scrape of a run is the startup handshake (it happens before
// any solve), so connection-refused is retried with the same
// seeded-jitter backoff postRetry uses.
func metricsScrape(client *http.Client, rng *rand.Rand, url string) (*obs.Scrape, error) {
	resp, err := client.Get(url + "/metrics")
	backoff := 100 * time.Millisecond
	for attempt := 1; connRefused(err) && attempt < startupRetryAttempts; attempt++ {
		time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff))))
		if backoff < maxRetryBackoff {
			backoff *= 2
		}
		resp, err = client.Get(url + "/metrics")
	}
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	sc, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("/metrics does not parse: %w", err)
	}
	return sc, nil
}

// latencyLabels selects the server-side request-latency series the
// Count-semiring smoke workload lands in.
var latencyLabels = map[string]string{"semiring": "count"}

// serverLatency estimates phase quantiles from the cumulative-bucket
// delta of faq_service_request_ns between two scrapes (differences of
// cumulative counts are again cumulative, so the interpolation applies
// unchanged).
func serverLatency(before, after *obs.Scrape) (p remotePhase, err error) {
	const series = "faq_service_request_ns"
	lesB, cumB, okB := before.HistBuckets(series, latencyLabels)
	lesA, cumA, okA := after.HistBuckets(series, latencyLabels)
	if !okA {
		return p, fmt.Errorf("%s missing from /metrics", series)
	}
	delta := append([]float64(nil), cumA...)
	if okB {
		if len(cumB) != len(cumA) || !slices.Equal(lesB, lesA) {
			return p, fmt.Errorf("%s bucket layout changed between scrapes", series)
		}
		for i := range delta {
			delta[i] -= cumB[i]
		}
	}
	p.ServerP50NS = obs.QuantileFromBuckets(lesA, delta, 0.50)
	p.ServerP99NS = obs.QuantileFromBuckets(lesA, delta, 0.99)
	p.ServerCount = delta[len(delta)-1]
	return p, nil
}

// runRemote smokes a running faqd in two phases — cold (one request
// per template, plans compile) then warm (cached plans bind to fresh
// data) — scraping /metrics at each phase boundary. Every answer is
// verified against the local direct solve (wire values are exact for
// Count), server-side latency quantiles and shed/deadline counters
// are folded into the report from the scrape deltas, and the summary
// is written to -out as JSON next to the text table.
func runRemote(url, out string, requests, n, dom int, seed int64, hs []*hypergraph.Hypergraph, frees [][]int) error {
	client := &http.Client{Timeout: 60 * time.Second}
	rng := rand.New(rand.NewSource(seed * 7_919))
	coldN := len(templates)
	if requests < coldN {
		coldN = requests
	}

	solveOne := func(i int) (int64, error) {
		r := genRequest(hs, frees, i, n, dom, seed)
		wr := queryToWire(r.q)
		body, err := json.Marshal(wr)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		resp, err := postRetry(client, rng, url+"/solve", body)
		if err != nil {
			return 0, fmt.Errorf("POST /solve: %w", err)
		}
		var wa faqs.WireAnswer
		decErr := json.NewDecoder(resp.Body).Decode(&wa)
		resp.Body.Close()
		lat := time.Since(t0).Nanoseconds()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("POST /solve: status %d", resp.StatusCode)
		}
		if decErr != nil {
			return 0, fmt.Errorf("decode answer: %w", decErr)
		}
		want, err := faq.Solve(r.q)
		if err != nil {
			return 0, err
		}
		if err := compareWire(r.q, want, &wa); err != nil {
			return 0, fmt.Errorf("request %d (%s): %w", i, templates[r.template].name, err)
		}
		return lat, nil
	}

	runPhase := func(from, to int) (remotePhase, *obs.Scrape, error) {
		before, err := metricsScrape(client, rng, url)
		if err != nil {
			return remotePhase{}, nil, err
		}
		var lats []int64
		for i := from; i < to; i++ {
			lat, err := solveOne(i)
			if err != nil {
				return remotePhase{}, nil, err
			}
			lats = append(lats, lat)
		}
		after, err := metricsScrape(client, rng, url)
		if err != nil {
			return remotePhase{}, nil, err
		}
		ph, err := serverLatency(before, after)
		if err != nil {
			return remotePhase{}, nil, err
		}
		ph.Requests = len(lats)
		slices.Sort(lats)
		ph.ClientP50NS = percentile(lats, 0.50)
		ph.ClientP99NS = percentile(lats, 0.99)
		if ph.ServerCount < float64(len(lats)) {
			return remotePhase{}, nil, fmt.Errorf("server latency histogram saw %.0f requests, want >= %d", ph.ServerCount, len(lats))
		}
		return ph, after, nil
	}

	t0 := time.Now()
	cold, _, err := runPhase(0, coldN)
	if err != nil {
		return err
	}
	warm, final, err := runPhase(coldN, requests)
	if err != nil {
		return err
	}
	wallNS := time.Since(t0).Nanoseconds()

	// Key series must be live: a scrape that parses but reports a dead
	// engine (nothing counted) is a broken /metrics, not a quiet one.
	for _, check := range []struct {
		series string
		labels map[string]string
	}{
		{"faq_service_requests_total", latencyLabels},
		{"faq_plan_cache_misses_total", nil},
		{"faq_go_goroutines", nil},
		{"faqd_http_requests_total", map[string]string{"path": "/solve", "code": "200"}},
	} {
		if v, ok := final.Value(check.series, check.labels); !ok || v < 1 {
			return fmt.Errorf("key series %s%v is missing or zero after %d requests (v=%v ok=%v)",
				check.series, check.labels, requests, v, ok)
		}
	}
	// The solve work must have landed somewhere: an in-process engine
	// drives the exec pool, while a cluster-backed faqd scatters the
	// pass to its shard workers and books the traffic under
	// protocol="cluster" instead.
	execTasks, _ := final.Value("faq_exec_tasks_total", nil)
	clusterBytes, _ := final.Value("faq_protocol_bytes_total", map[string]string{"protocol": "cluster"})
	if execTasks < 1 && clusterBytes < 1 {
		return fmt.Errorf("neither faq_exec_tasks_total nor faq_protocol_bytes_total{protocol=cluster} moved after %d requests", requests)
	}
	shed, _ := final.Value("faq_service_shed_total", latencyLabels)
	deadlines, _ := final.Value("faq_service_deadline_exceeded_total", latencyLabels)

	resp, err := client.Get(url + "/stats")
	if err != nil {
		return fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	var stats struct {
		Cache plan.CacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return fmt.Errorf("decode stats: %w", err)
	}
	if stats.Cache.Compiles < 1 || stats.Cache.Compiles > int64(len(templates)) {
		return fmt.Errorf("stats: %d compiles for %d templates — plan sharing broken", stats.Cache.Compiles, len(templates))
	}

	rep := remoteReport{
		URL: url, Requests: requests, N: n,
		Cold: cold, Warm: warm,
		Shed: shed, DeadlineExceeded: deadlines,
		PlanCompiles:    stats.Cache.Compiles,
		AnswersVerified: true,
	}
	if wallNS > 0 {
		rep.ThroughputRPS = float64(requests) / (float64(wallNS) / 1e9)
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	fmt.Printf("remote smoke: %d requests OK against %s (%.1f req/s), %d plan compiles for %d shapes, answers verified\n",
		requests, url, rep.ThroughputRPS, stats.Cache.Compiles, len(templates))
	fmt.Printf("%-6s %-10s %-14s %-14s %-14s %-14s\n",
		"phase", "requests", "client_p50_ms", "client_p99_ms", "server_p50_ms", "server_p99_ms")
	for _, row := range []struct {
		name string
		ph   remotePhase
	}{{"cold", cold}, {"warm", warm}} {
		fmt.Printf("%-6s %-10d %-14.3f %-14.3f %-14.3f %-14.3f\n",
			row.name, row.ph.Requests,
			float64(row.ph.ClientP50NS)/1e6, float64(row.ph.ClientP99NS)/1e6,
			row.ph.ServerP50NS/1e6, row.ph.ServerP99NS/1e6)
	}
	fmt.Printf("server counters: shed=%.0f deadline_exceeded=%.0f\n", shed, deadlines)
	if out != "" {
		fmt.Printf("wrote %s\n", out)
	}
	return nil
}

// queryToWire renders a Count query as a wire request (vertex names are
// the hypergraph's display names).
func queryToWire(q *faq.Query[int64]) *faqs.WireRequest {
	wr := &faqs.WireRequest{Semiring: "count", Dom: q.DomSize}
	for e := 0; e < q.H.NumEdges(); e++ {
		names := make([]string, len(q.H.Edge(e)))
		for i, v := range q.H.Edge(e) {
			names[i] = q.H.VertexName(v)
		}
		wr.Edges = append(wr.Edges, names)
		f := q.Factors[e]
		wf := faqs.WireFactor{Tuples: make([][]int, f.Len()), Values: make([]float64, f.Len())}
		for t := 0; t < f.Len(); t++ {
			row := make([]int, len(f.Tuple(t)))
			for j, x := range f.Tuple(t) {
				row[j] = int(x)
			}
			wf.Tuples[t] = row
			wf.Values[t] = float64(f.Value(t))
		}
		wr.Factors = append(wr.Factors, wf)
	}
	for _, v := range q.Free {
		wr.Free = append(wr.Free, q.H.VertexName(v))
	}
	return wr
}

// compareWire checks a wire answer against the reference relation.
func compareWire(q *faq.Query[int64], want *relation.Relation[int64], wa *faqs.WireAnswer) error {
	if len(wa.Tuples) != want.Len() {
		return fmt.Errorf("answer has %d tuples, want %d", len(wa.Tuples), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		wt := want.Tuple(i)
		if len(wa.Tuples[i]) != len(wt) {
			return fmt.Errorf("tuple %d arity mismatch", i)
		}
		for j := range wt {
			if wa.Tuples[i][j] != int(wt[j]) {
				return fmt.Errorf("tuple %d differs", i)
			}
		}
		if int64(wa.Values[i]) != want.Value(i) {
			return fmt.Errorf("value %d differs: %v vs %d", i, wa.Values[i], want.Value(i))
		}
	}
	return nil
}
