// Command bench is the repository's benchmark: one seeded harness, five
// workloads, end-to-end metrics from an untraced run and per-layer
// metrics from a separate traced run. BENCHMARK.json at the repo root is
// its contract and bench/README.md its manual; bench/run.sh is the one
// command.
//
//	bench -workload <w> -seed <n> -seconds <s> -trace <0|1>   one run
//	bench -all                                                 every workload, untraced then traced, each in a fresh process
//	bench -aa                                                  every run twice; fail on disagreement beyond the bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

func main() {
	var (
		cfg   config
		trace int
		smoke bool
		all   bool
		aa    bool
		spec  string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", 1, "generator seed; reaches only the input generators")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed phase (BENCHMARK.json's run_seconds)")
	flag.IntVar(&trace, "trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
	flag.BoolVar(&smoke, "smoke", false, "tiny input sizes (what `go test ./bench/` runs)")
	flag.BoolVar(&all, "all", false, "run every workload, untraced and traced, each in a fresh process")
	flag.BoolVar(&aa, "aa", false, "A/A check: run everything twice on this binary and compare against BENCHMARK.json's bounds")
	flag.StringVar(&cfg.faqd, "faqd", "", "path of a built faqd binary (built with `go build` when empty)")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for result, trace and log files")
	flag.StringVar(&spec, "benchmark-json", "BENCHMARK.json", "the benchmark contract (-aa reads its bounds)")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.sz = fullSizes
	if smoke {
		cfg.sz = smokeSizes
	}

	// A signal cancels the context; every exit path below unwinds
	// through run's deferred tearDown, so no daemon is orphaned.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// A blocking call that ignores the context must not keep a
		// signalled benchmark, or its daemon, alive.
		<-ctx.Done()
		time.Sleep(5 * time.Second)
		killDaemons()
		os.Exit(1)
	}()

	var err error
	switch {
	case aa:
		err = runAA(ctx, &cfg, smoke, spec)
	case all:
		err = runAll(ctx, &cfg, smoke)
	default:
		err = runOne(ctx, &cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		stop()
		os.Exit(1)
	}
}

var errIncorrect = errors.New("run was not correct (failed operations)")

// runOne is one contract run: every metric by name with its unit, then
// the result object as the last line of standard output.
func runOne(ctx context.Context, cfg *config) error {
	if cfg.workload == "" {
		return fmt.Errorf("no -workload given (have %v; or use -all)", workloadNames())
	}
	res, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if err := res.write(cfg.outDir); err != nil {
		return err
	}
	fmt.Println(res.line())
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// child runs one workload in a fresh process of this same binary, so
// CPU and peak RSS are per workload, and loads the result it wrote.
func child(ctx context.Context, cfg *config, smoke bool, workload string, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace, suffix := "0", ""
	if traced {
		trace, suffix = "1", "-traced"
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-out", cfg.outDir, "-faqd", cfg.faqd, "-trace", trace,
	}
	if smoke {
		args = append(args, "-smoke")
	}
	path := filepath.Join(cfg.outDir, "result-"+workload+suffix+".json")
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err // a stale result must not pass for this run's
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, errors.Join(runErr, err)
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	if runErr != nil {
		return &res, fmt.Errorf("workload %s (traced=%v): %w", workload, traced, runErr)
	}
	return &res, nil
}

// combined is the one JSON result of a full run.
type combined struct {
	Env       environment `json:"env"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Claim     *string     `json:"claim"`
	Correct   bool        `json:"correct"`
	Workloads []*result   `json:"runs"`
}

func runAll(ctx context.Context, cfg *config, smoke bool) error {
	out := combined{Env: currentEnvironment(), Seed: cfg.seed, Seconds: cfg.seconds, Correct: true}
	var firstErr error
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := child(ctx, cfg, smoke, w, traced)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if res == nil || !res.Correct {
				out.Correct = false
			}
			if res != nil {
				out.Workloads = append(out.Workloads, res)
			}
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (correct=%v)\n", path, out.Correct)
	if firstErr != nil {
		return firstErr
	}
	if !out.Correct {
		return errIncorrect
	}
	return nil
}
