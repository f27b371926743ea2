package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it: p99 needs 1000 samples, not 100.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{1000, 99, true}, {999, 98, true}, {500, 98, true}, {499, 95, true}, {200, 95, true}, {100, 90, true}, {40, 75, true}, {20, 50, true}, {19, 50, false}} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g ok=%v, want p%g ok=%v", c.n, got, ok, c.want, c.ok)
		}
		if ok && samplesBeyond(c.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = p%g leaves %d samples beyond", c.n, got, samplesBeyond(c.n, got))
		}
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}
	if got := trimmedMean(xs, 0.1); got != 4.5 {
		t.Errorf("trimmedMean(…, 0.1) = %g, want 4.5 (both outliers dropped)", got)
	}
	if got := trimmedMean([]float64{3, 5}, 0.1); got != 4 {
		t.Errorf("trimmedMean of two values = %g, want their mean", got)
	}
	if got := trimmedMean(nil, 0.1); got != 0 {
		t.Errorf("trimmedMean of nothing = %g, want 0", got)
	}
}

// A host that runs at half speed doubles every duration and the
// yardstick's reading alike, so the scaled numbers must not move while
// the raw ones halve.
func TestScalingCancelsHostSpeed(t *testing.T) {
	phase := func(slowdown float64) []timedSlice {
		var out []timedSlice
		for i := 0; i < 3*slicesPerWindow; i++ {
			reading := time.Duration(slowdown * float64(yardstickRef))
			out = append(out, timedSlice{
				wall: time.Duration(slowdown * float64(sliceLen)), cpu: time.Duration(slowdown * float64(sliceLen) * 1.5),
				ops: 50, factor: hostFactor(reading, reading),
			})
		}
		return out
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	rate1, cpu1, windows := windowMeans(phase(1), true)
	rate2, cpu2, _ := windowMeans(phase(2), true)
	if windows != 3 || !near(rate1, 200) || !near(cpu1, 7.5) {
		t.Errorf("reference-speed host: %d windows, %g ops/s, %g ms CPU/op; want 3, 200, 7.5", windows, rate1, cpu1)
	}
	if !near(rate2, rate1) || !near(cpu2, cpu1) {
		t.Errorf("half-speed host: scaled %g ops/s, %g ms/op; want %g, %g", rate2, cpu2, rate1, cpu1)
	}
	if raw, _, _ := windowMeans(phase(2), false); !near(raw, 100) {
		t.Errorf("half-speed host: raw %g ops/s, want 100", raw)
	}
}

// The yardstick must leave the collector of the program under test
// alone.
func TestYardstickDoesNotAllocate(t *testing.T) {
	y := newYardstick()
	if n := testing.AllocsPerRun(3, func() { y.once() }); n != 0 {
		t.Errorf("one pass of the yardstick allocates %g times", n)
	}
	if y.read() <= 0 {
		t.Error("a reading took no time")
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "replay", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "cluster.solve", Parent: 0, Start: 10, End: 90},
		// Two concurrent round trips covering [20,60] between them, one
		// that sticks out of its parent, and a grandchild that must not be
		// subtracted from the grandparent twice.
		{ID: 2, Name: "rpc.roundtrip", Parent: 1, Start: 20, End: 50},
		{ID: 3, Name: "rpc.roundtrip", Parent: 1, Start: 30, End: 60},
		{ID: 4, Name: "rpc.roundtrip", Parent: 1, Start: 80, End: 95},
		{ID: 5, Name: "inner", Parent: 2, Start: 25, End: 45},
		{ID: 6, Name: "unfinished", Parent: 0, Start: 95, End: -1},
	}
	want := []int64{20, 30, 10, 30, 15, 20, 0}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got, want[i])
		}
	}
	sum := summarize(append(spans, span{ID: 7, Name: "op", Parent: -1, Start: 100, End: 180}))
	if sum.wholeNS != 80 || sum.partsNS != 80 || sum.byLayer["cluster"] != 80 {
		t.Errorf("summary whole=%d parts=%d cluster=%d, want 80 80 80", sum.wholeNS, sum.partsNS, sum.byLayer["cluster"])
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func smokeConfig(t *testing.T, workload string, seed int64) *config {
	return &config{workload: workload, seed: seed, seconds: 0.2, sz: smokeSizes, outDir: t.TempDir()}
}

// Same seed: byte-identical request bodies and answer digests. Another
// seed: different ones.
func TestGeneratorsAreDeterministic(t *testing.T) {
	gen := func(seed int64) ([][]byte, []string) {
		w := &serveHTTP{cfg: smokeConfig(t, "serve_http", seed)}
		if err := w.generate(); err != nil {
			t.Fatal(err)
		}
		if err := w.prepareReferences(); err != nil {
			t.Fatal(err)
		}
		digests := make([]string, len(w.refs))
		for i, r := range w.refs {
			digests[i] = r.ans.digest()
		}
		return w.bodies, digests
	}
	b1, d1 := gen(7)
	b2, d2 := gen(7)
	b3, d3 := gen(8)
	sameBodies, sameDigests := true, true
	for i := range b1 {
		if !bytes.Equal(b1[i], b2[i]) || d1[i] != d2[i] {
			t.Fatalf("seed 7 twice: request %d differs", i)
		}
		sameBodies = sameBodies && bytes.Equal(b1[i], b3[i])
		sameDigests = sameDigests && d1[i] == d3[i]
	}
	if sameBodies || sameDigests {
		t.Errorf("seeds 7 and 8 gave the same inputs (bodies equal: %v, digests equal: %v)", sameBodies, sameDigests)
	}

	// The stateful generator too: same seed, same operations.
	ops := func(seed int64) string {
		w := &viewChurn{cfg: smokeConfig(t, "view_churn", seed)}
		w.generate()
		data, err := json.Marshal(struct {
			Ops   []viewOp
			Views []*querySpec
		}{w.ops, []*querySpec{w.views[0].spec, w.views[1].spec, w.views[2].spec}})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if ops(7) != ops(7) || ops(7) == ops(8) {
		t.Error("view_churn operations are not a function of the seed alone")
	}
}

func TestZipfSequenceHasFixedCounts(t *testing.T) {
	seq := zipfSequence(newRand(1), 16, 200)
	counts := make([]int, 16)
	for _, x := range seq {
		counts[x]++
	}
	other := make([]int, 16)
	for _, x := range zipfSequence(newRand(2), 16, 200) {
		other[x]++
	}
	for r := range counts {
		if counts[r] != other[r] {
			t.Errorf("rank %d occurs %d times under seed 1 and %d under seed 2", r, counts[r], other[r])
		}
		if r > 0 && counts[r] > counts[r-1] {
			t.Errorf("rank %d (%d) more popular than rank %d (%d)", r, counts[r], r-1, counts[r-1])
		}
	}
	if len(seq) != 200 || counts[0] < 3*counts[3] {
		t.Errorf("not Zipf(1): %d ops, counts %v", len(seq), counts)
	}
}

// BENCHMARK.json and the Go catalogue name the same workloads and the
// same metrics with the same units, and the contract's own rules hold.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	spec, err := readBenchmarkSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalogue %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: %q / %q differs from the catalogue's %q / %q", i, w.Name, w.Why, workloadDefs[i].Name, workloadDefs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []boundedMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s metric %d: %s [%s] differs from the catalogue's %s [%s]", kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, m.Name, m.Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var setup, widest float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
		widest = max(widest, m.Bound)
	}
	if setup == 0 || setup != widest {
		t.Errorf("setup_s must have the largest bound: %g of %g", setup, widest)
	}
	names := map[string]bool{}
	for _, d := range perLayer {
		names[d.Name] = true
	}
	for _, n := range exactCounts {
		if !names[n] {
			t.Errorf("exact count %q is not a per-layer metric", n)
		}
	}
}

func TestWorseBy(t *testing.T) {
	lower := boundedMetric{Better: "lower"}
	higher := boundedMetric{Better: "higher"}
	if d := worseBy(lower, 100, 110); d < 0.0999 || d > 0.1001 {
		t.Errorf("latency 100 → 110 is worse by %g, want 0.1", d)
	}
	if d := worseBy(higher, 100, 110); d > -0.0999 {
		t.Errorf("throughput 100 → 110 is worse by %g, want -0.1", d)
	}
}

// faqdForTests builds the daemon once; serve_http is skipped when the
// environment cannot build it (tier-1 then fails on its own).
func faqdForTests(t *testing.T) string {
	bin := filepath.Join(t.TempDir(), "faqd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/faqd").CombinedOutput(); err != nil {
		t.Logf("cannot build faqd here: %v\n%s", err, out)
		return ""
	}
	return bin
}

// The smoke preset: all five workloads, untraced and traced, at tiny
// sizes with brute-force references. Every run must be correct and print
// exactly the catalogue's metrics, each with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	faqd := faqdForTests(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			if name == "serve_http" && faqd == "" {
				t.Log("skipping serve_http: no faqd binary")
				continue
			}
			cfg := smokeConfig(t, name, 3)
			cfg.trace, cfg.faqd = traced, faqd
			res, err := run(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v", name, traced, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			if res.Clients < 1 || res.Clients > 2 || res.LoadModel != "closed loop" {
				t.Errorf("%s: %d clients, load model %q", name, res.Clients, res.LoadModel)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", name, traced, d.Name, m.Unit, d.Unit)
				}
			}
			var line contractLine
			if err := json.Unmarshal([]byte(res.line()), &line); err != nil || len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line does not round-trip: %v", name, traced, err)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no trace file written: %v", name, err)
				}
			}
		}
	}
}

// A corrupted reference answer must surface as failed operations, which
// is what makes the command exit non-zero.
func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	cfg := smokeConfig(t, "plan_churn", 5)
	w := &planChurn{cfg: cfg}
	ctx := context.Background()
	if err := w.setUp(ctx); err != nil {
		t.Fatal(err)
	}
	defer w.tearDown()
	if err := w.prepareReferences(); err != nil {
		t.Fatal(err)
	}
	ref := w.refs[w.seq[0]]
	ref.ans.Values[0]++
	res := &result{Metrics: map[string]metricValue{}, Raw: map[string]float64{}, SetupRuns: []float64{1}, RawSetupRuns: []float64{1}}
	if err := runTimed(ctx, cfg, w, res, newYardstick()); err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Failed >= res.Attempted {
		t.Errorf("corrupted reference: %d of %d ops failed, want some but not all", res.Failed, res.Attempted)
	}
}
