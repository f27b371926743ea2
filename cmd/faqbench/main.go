// Command faqbench regenerates the paper's tables, figures, and worked
// examples as text tables of paper-claim vs. measured values.
//
// Usage:
//
//	faqbench [experiment ...]
//
// With no arguments every experiment runs. Available experiment ids:
// widths, table1, examples, example24, setint, taumcf, mcm, entropy,
// shannon, mpc, pgm.
//
// Engine performance is measured by the bench/ harness, not here.
package main

import (
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "faqbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	registry := map[string]func() (*experiments.Table, error){
		"widths":    experiments.WidthTable,
		"table1":    func() (*experiments.Table, error) { return experiments.Table1(128) },
		"examples":  func() (*experiments.Table, error) { return experiments.ExamplesTable(128) },
		"example24": func() (*experiments.Table, error) { return experiments.Example24Table(128) },
		"setint":    func() (*experiments.Table, error) { return experiments.SetIntersectionTable(128) },
		"taumcf":    func() (*experiments.Table, error) { return experiments.TauMCFTable(256) },
		"mcm":       experiments.MCMTable,
		"entropy":   func() (*experiments.Table, error) { return experiments.EntropyTable(200000) },
		"shannon":   experiments.ShannonTable,
		"mpc":       func() (*experiments.Table, error) { return experiments.MPCTable(128) },
		"pgm":       func() (*experiments.Table, error) { return experiments.PGMTable(128) },
	}
	if len(args) == 0 {
		tables, err := experiments.All()
		if err != nil {
			return err
		}
		for _, t := range tables {
			fmt.Println(t.Format())
		}
		return nil
	}
	for _, id := range args {
		f, ok := registry[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (see -h)", id)
		}
		t, err := f()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(t.Format())
	}
	return nil
}
