package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	faqd     string // path of a built faqd binary; built on demand when empty
	outDir   string
}

// workload is one benchmark scenario. All workloads are closed loops: a
// client issues its next operation only after the previous one returned.
type workload interface {
	// clients is the number of concurrent closed-loop clients (≤ 2: the
	// host has two CPUs).
	clients() int
	// setUp generates the seeded inputs, boots the system under test and
	// warms it up. It is repeated (after tearDown) to steady setup_s.
	setUp(ctx context.Context) error
	tearDown()
	// prepareReferences computes the independent reference answers for
	// the inputs of the latest setUp.
	prepareReferences() error
	// numOps is the length of the fixed, seeded operation sequence; the
	// timed phase walks it cyclically (or, for stateful workloads that
	// return cyclic() == false, once).
	numOps() int
	cyclic() bool
	// do runs operation i for one client and verifies its answer. The
	// returned duration is the operation's latency alone.
	do(ctx context.Context, client, i int) (time.Duration, error)
	// targetPID is the process holding the engine under test (0: this
	// one) — whose CPU and peak RSS are reported.
	targetPID() int
	// traced runs the fixed traced op sequence under rec and returns the
	// per-layer metrics plus attempted/failed counts.
	traced(ctx context.Context, rec *recorder) (map[string]float64, int, int, error)
}

// checkpointer is implemented by stateful single-client workloads whose
// answers can only be verified against a from-scratch solve: the harness
// stops the clock every checkEvery ops (and at the end) and calls
// checkpoint, which returns how many answers were wrong.
type checkpointer interface {
	checkEvery() int
	checkpoint(done int) (checked, wrong int, err error)
	checkFinal(done int) (checked, wrong int, err error)
}

func newWorkload(cfg *config) (workload, error) {
	switch cfg.workload {
	case "serve_http":
		return &serveHTTP{cfg: cfg}, nil
	case "plan_churn":
		return &planChurn{cfg: cfg}, nil
	case "kernel_large":
		return &kernelLarge{cfg: cfg}, nil
	case "view_churn":
		return &viewChurn{cfg: cfg}, nil
	case "cluster_tcp":
		return &clusterTCP{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	out := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		out[i] = w.Name
	}
	return out
}

// environment is the testbed stanza of every result.
type environment struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run writes to bench/out and, reduced to the four
// contract keys, prints as its last line.
type result struct {
	Workload       string                 `json:"workload"`
	Why            string                 `json:"why"`
	Traced         bool                   `json:"traced"`
	LoadModel      string                 `json:"load_model"`
	Clients        int                    `json:"clients"`
	Seed           int64                  `json:"seed"`
	Seconds        float64                `json:"seconds"`
	Env            environment            `json:"env"`
	Oversubscribed bool                   `json:"oversubscribed"`
	Claim          *string                `json:"claim"`
	Correct        bool                   `json:"correct"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	Samples        int                    `json:"latency_samples,omitempty"`
	Windows        int                    `json:"windows,omitempty"`        // windows behind the reported medians
	MeanOpsPerS    float64                `json:"mean_ops_per_s,omitempty"` // all ops / whole timed wall, unscaled, for reference
	HostFactor     float64                `json:"host_factor,omitempty"`    // median yardstickRef / yardstick reading: < 1 on a slow host
	Raw            map[string]float64     `json:"raw,omitempty"`            // the time-based metrics before scaling to the reference host speed
	TailPercentile float64                `json:"latency_tail_percentile,omitempty"`
	SetupRuns      []float64              `json:"setup_runs_s,omitempty"`
	RawSetupRuns   []float64              `json:"raw_setup_runs_s,omitempty"`
	ReferenceS     float64                `json:"reference_s"`
	Notes          []string               `json:"notes,omitempty"`
	Metrics        map[string]metricValue `json:"metrics"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func whyOf(name string) string {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

// run executes one workload once, traced or not, and returns its result.
func run(ctx context.Context, cfg *config, log io.Writer) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: cfg.workload, Why: whyOf(cfg.workload), Traced: cfg.trace,
		LoadModel: "closed loop", Clients: w.clients(), Seed: cfg.seed, Seconds: cfg.seconds,
		Env: currentEnvironment(), Metrics: map[string]metricValue{}, Raw: map[string]float64{},
	}
	// Every workload runs its engine at 2 workers; with fewer
	// processors a wall-clock scaling number would be a lie.
	res.Oversubscribed = res.Env.GOMAXPROCS < 2
	fmt.Fprintf(log, "workload %s: closed loop, %d client(s), seed %d, cpus=%d GOMAXPROCS=%d %s commit=%s\n",
		cfg.workload, w.clients(), cfg.seed, res.Env.CPUs, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Commit)
	if res.Oversubscribed {
		fmt.Fprintf(log, "OVERSUBSCRIBED: GOMAXPROCS=%d < 2 workers; exec.speedup_w2 is not measured\n", res.Env.GOMAXPROCS)
	}

	setups := cfg.sz.setups
	if cfg.trace {
		setups = 1
	}
	y := newYardstick()
	defer w.tearDown()
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.tearDown()
		}
		before, t0 := y.read(), time.Now()
		if err := w.setUp(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		res.RawSetupRuns = append(res.RawSetupRuns, d)
		res.SetupRuns = append(res.SetupRuns, d*hostFactor(before, y.read()))
	}
	t0 := time.Now()
	if err := w.prepareReferences(); err != nil {
		return nil, fmt.Errorf("reference answers: %w", err)
	}
	res.ReferenceS = time.Since(t0).Seconds()
	// Hand the garbage of set-up and reference solving back to the
	// system and restart the peak-RSS high-water mark of the process
	// under test, so peak_rss_mb is the timed phase's own peak.
	debug.FreeOSMemory()
	resetPeakRSS(w.targetPID())

	if cfg.trace {
		err = runTraced(ctx, cfg, w, res)
	} else {
		err = runTimed(ctx, cfg, w, res, y)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// phaseClock accumulates wall and CPU time over the timed segments of a
// phase, so verification pauses are outside both.
type phaseClock struct {
	pid      int
	wall     time.Duration
	cpu      time.Duration
	wallFrom time.Time
	cpuFrom  time.Duration
}

func cpuOf(pid int) (time.Duration, error) {
	if pid == 0 {
		return selfCPU()
	}
	return procCPU(pid)
}

func (c *phaseClock) start() error {
	cpu, err := cpuOf(c.pid)
	if err != nil {
		return err
	}
	c.cpuFrom, c.wallFrom = cpu, time.Now()
	return nil
}

func (c *phaseClock) stop() error {
	c.wall += time.Since(c.wallFrom)
	cpu, err := cpuOf(c.pid)
	if err != nil {
		return err
	}
	c.cpu += cpu - c.cpuFrom
	return nil
}

// opSample is one successful operation: the slice of the timed phase it
// completed in, and how long it took.
type opSample struct {
	slice   int
	latency time.Duration
}

// timedSlice is one stretch of the timed phase between two readings of
// the yardstick: its wall time, the target process's CPU time, the ops
// completed in it, and the factor that scales its durations to the
// reference host speed.
type timedSlice struct {
	wall, cpu time.Duration
	ops       int
	factor    float64
}

// slicesPerWindow slices make one window of the timed phase.
const slicesPerWindow = 4

// windowMeans groups the slices into windows and returns throughput and
// CPU per operation as means over the windows, the slowest and the
// fastest tenth of them left out: a collection cycle, or a burst on the
// host too short for the yardstick to see, lands in a window or two and
// would otherwise move the mean. With scaled set, every slice's
// durations are first scaled to the reference host speed.
func windowMeans(slices []timedSlice, scaled bool) (opsPerS, cpuMSPerOp float64, windows int) {
	var rates, cpus []float64
	for lo := 0; lo < len(slices); lo += slicesPerWindow {
		hi := min(lo+slicesPerWindow, len(slices))
		if hi-lo < slicesPerWindow && lo > 0 {
			break // a short last window would weigh as much as a whole one
		}
		var wall, cpu float64
		ops := 0
		for _, s := range slices[lo:hi] {
			f := 1.0
			if scaled {
				f = s.factor
			}
			wall += s.wall.Seconds() * f
			cpu += float64(s.cpu.Nanoseconds()) / 1e6 * f
			ops += s.ops
		}
		if ops == 0 || wall <= 0 {
			continue
		}
		rates = append(rates, float64(ops)/wall)
		cpus = append(cpus, cpu/float64(ops))
	}
	return trimmedMean(rates, 0.1), trimmedMean(cpus, 0.1), len(rates)
}

// runTimed is the untraced run: the end-to-end metrics.
func runTimed(ctx context.Context, cfg *config, w workload, res *result, y *yardstick) error {
	clients := w.clients()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	n := w.numOps()
	cp, _ := w.(checkpointer)
	if cp != nil && clients != 1 {
		return fmt.Errorf("checkpointed workloads must have one client")
	}

	var (
		next      atomic.Int64
		failed    atomic.Int64
		attempted atomic.Int64
		firstErr  atomic.Pointer[error]
		slices    []timedSlice
	)
	samples := make([][]opSample, clients)
	clock := &phaseClock{pid: w.targetPID()}

	// segment runs all clients until the phase clock reads untilWall,
	// the sequence is exhausted, or op untilOp is next.
	segment := func(untilOp int64, untilWall time.Duration) error {
		if err := clock.start(); err != nil {
			return err
		}
		cur := len(slices)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for clock.wall+time.Since(clock.wallFrom) < untilWall && ctx.Err() == nil {
					i := next.Add(1) - 1
					if i >= untilOp || (!w.cyclic() && i >= int64(n)) {
						next.Add(-1)
						return
					}
					attempted.Add(1)
					d, err := w.do(ctx, c, int(i%int64(n)))
					if err != nil {
						// A failed op has no latency.
						failed.Add(1)
						firstErr.CompareAndSwap(nil, &err)
						continue
					}
					samples[c] = append(samples[c], opSample{cur, d})
				}
			}(c)
		}
		wg.Wait()
		return clock.stop()
	}

	// The phase is a run of slices, the yardstick read between them (off
	// the phase clock, like the checkpoints of a stateful workload).
	nextCheck := int64(1) << 62
	if cp != nil {
		nextCheck = int64(cp.checkEvery())
	}
	before := y.read()
	for done := false; !done; {
		wall0, cpu0 := clock.wall, clock.cpu
		if err := segment(nextCheck, min(budget, clock.wall+sliceLen)); err != nil {
			return err
		}
		after := y.read()
		slices = append(slices, timedSlice{wall: clock.wall - wall0, cpu: clock.cpu - cpu0, factor: hostFactor(before, after)})
		before = after
		done = clock.wall >= budget || (!w.cyclic() && next.Load() >= int64(n)) || ctx.Err() != nil
		if cp != nil && (done || next.Load() >= nextCheck) {
			check := cp.checkpoint
			if done {
				check = cp.checkFinal
			}
			checked, wrong, err := check(int(next.Load()))
			if err != nil {
				return fmt.Errorf("checkpoint at op %d: %w", next.Load(), err)
			}
			attempted.Add(int64(checked))
			failed.Add(int64(wrong))
			nextCheck = next.Load() + int64(cp.checkEvery())
			// The from-scratch solve's garbage is the benchmark's: collect
			// it here, off the clock, not in the middle of the next ops.
			runtime.GC()
			before = y.read()
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	var raw, scaled []time.Duration
	for _, cs := range samples {
		for _, o := range cs {
			slices[o.slice].ops++
			raw = append(raw, o.latency)
			scaled = append(scaled, time.Duration(float64(o.latency)*slices[o.slice].factor))
		}
	}
	if len(raw) == 0 {
		if e := firstErr.Load(); e != nil {
			return fmt.Errorf("no operation succeeded; first error: %w", *e)
		}
		return fmt.Errorf("no operation completed in %.1fs", cfg.seconds)
	}
	tail, ok := tailPercentile(len(raw))
	res.Samples, res.TailPercentile = len(raw), tail
	if !ok || tail != 99 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"only %d latency samples: latency_p99_ms reports p%g, the highest percentile with at least 10 samples beyond it", len(raw), tail))
	}
	if e := firstErr.Load(); e != nil {
		res.Notes = append(res.Notes, "first failed op: "+(*e).Error())
	}
	hwm, err := procStatusKB(w.targetPID(), "VmHWM")
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = int(attempted.Load()), int(failed.Load())
	res.MeanOpsPerS = float64(len(raw)) / clock.wall.Seconds()
	factors := make([]float64, len(slices))
	for i, s := range slices {
		factors[i] = s.factor
	}
	res.HostFactor = median(factors)

	rate, cpu, windows := windowMeans(slices, true)
	res.Windows = windows
	ms := durationsMS(scaled)
	res.set("setup_s", median(res.SetupRuns))
	res.set("ops_per_s", rate)
	res.set("latency_p50_ms", percentile(ms, 50))
	res.set("latency_p99_ms", percentile(ms, tail))
	res.set("cpu_ms_per_op", cpu)
	res.set("peak_rss_mb", hwm/1024)

	rate, cpu, _ = windowMeans(slices, false)
	ms = durationsMS(raw)
	res.Raw["setup_s"] = median(res.RawSetupRuns)
	res.Raw["ops_per_s"] = rate
	res.Raw["latency_p50_ms"] = percentile(ms, 50)
	res.Raw["latency_p99_ms"] = percentile(ms, tail)
	res.Raw["cpu_ms_per_op"] = cpu
	return nil
}

// runTraced is the traced run: the per-layer metrics.
func runTraced(ctx context.Context, cfg *config, w workload, res *result) error {
	rec := newRecorder()
	m, attempted, failed, err := w.traced(ctx, rec)
	// Spans are written at exit whatever happened, so a failed traced
	// run can still be inspected.
	if werr := os.MkdirAll(cfg.outDir, 0o755); werr == nil {
		werr = rec.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"))
		if werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = attempted, failed
	m["fail_ratio"] = float64(failed) / float64(max(attempted, 1))
	if res.Oversubscribed {
		m["exec.speedup_w2"] = 0
	}
	for _, d := range perLayer {
		res.set(d.Name, m[d.Name])
		delete(m, d.Name)
	}
	for name := range m {
		return fmt.Errorf("workload reported unnamed metric %q", name)
	}
	if c := res.Metrics["trace.coverage"].Value; c < 0.9 || c > 1.1 {
		res.Notes = append(res.Notes, fmt.Sprintf("trace.coverage %.3f outside [0.9, 1.1]: the replayed parts do not add up to the whole op", c))
	}
	return nil
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf[name]}
}

// print writes every metric by name with its unit, then the notes.
func (r *result) print(log io.Writer) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	if !r.Traced {
		fmt.Fprintf(log, "  %-36s %d (tail percentile p%g; trimmed means over %d windows of %v; plain mean %.6g ops/s)\n",
			"latency samples", r.Samples, r.TailPercentile, r.Windows, slicesPerWindow*sliceLen, r.MeanOpsPerS)
		fmt.Fprintf(log, "  %-36s %14.6g (durations are scaled by it to the reference host speed; unscaled values on the right)\n",
			"host factor", r.HostFactor)
	}
	for _, d := range defs {
		fmt.Fprintf(log, "  %-36s %14.6g %s", d.Name, r.Metrics[d.Name].Value, d.Unit)
		if raw, ok := r.Raw[d.Name]; ok && !r.Traced {
			fmt.Fprintf(log, "  (%.6g)", raw)
		}
		fmt.Fprintln(log)
	}
	fmt.Fprintf(log, "  attempted=%d failed=%d correct=%v reference_s=%.3f\n", r.Attempted, r.Failed, r.Correct, r.ReferenceS)
	for _, n := range r.Notes {
		fmt.Fprintf(log, "  note: %s\n", n)
	}
}

func (r *result) line() string {
	b, _ := json.Marshal(contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	return string(b)
}

func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	suffix := ""
	if r.Traced {
		suffix = "-traced"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result-"+r.Workload+suffix+".json"), append(data, '\n'), 0o644)
}
