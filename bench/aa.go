package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark reads back.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction (negative: b is better).
func worseBy(m boundedMetric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runAA runs every workload twice on the same binary and seed, each run
// in a fresh process, and fails if the two disagree: an end-to-end
// metric by more than its own regression bound in either direction, or
// an exact-count metric at all. It is the check that the benchmark's
// bounds are wider than its own noise on this host.
func runAA(ctx context.Context, cfg *config, smoke bool, specPath string) error {
	spec, err := readBenchmarkSpec(specPath)
	if err != nil {
		return err
	}
	var problems []string
	for _, w := range workloadNames() {
		var timed, traced [2]*result
		for i := 0; i < 2; i++ {
			if timed[i], err = child(ctx, cfg, smoke, w, false); err != nil {
				return err
			}
			if traced[i], err = child(ctx, cfg, smoke, w, true); err != nil {
				return err
			}
		}
		for _, m := range spec.EndToEnd {
			a, b := timed[0].Metrics[m.Name].Value, timed[1].Metrics[m.Name].Value
			d := math.Max(worseBy(m, a, b), worseBy(m, b, a))
			status := "ok"
			if d > m.Bound {
				status = "DIFFERS"
				problems = append(problems, fmt.Sprintf("%s %s: %g vs %g differ by %.1f%% > bound %.0f%%", w, m.Name, a, b, 100*d, 100*m.Bound))
			}
			fmt.Printf("aa %-12s %-18s %12.6g %12.6g  %5.1f%% of %3.0f%%  %s\n", w, m.Name, a, b, 100*d, 100*m.Bound, status)
		}
		for _, name := range exactCounts {
			a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
			if a != b {
				problems = append(problems, fmt.Sprintf("%s %s: exact count %v vs %v", w, name, a, b))
			}
		}
	}
	for _, p := range problems {
		fmt.Println("aa FAIL:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("A/A: %d metric(s) disagree between two runs of the same code", len(problems))
	}
	fmt.Println("aa: two runs of the same code agree within every bound; exact counts repeat")
	return nil
}
