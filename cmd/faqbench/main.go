// Command faqbench regenerates the paper's tables, figures, and worked
// examples as text tables of paper-claim vs. measured values.
//
// Usage:
//
//	faqbench [experiment ...]
//
// With no arguments every experiment of the internal/experiments
// catalogue runs, in catalogue order; otherwise the named ones run. An
// unknown id fails with the list of the catalogue's ids.
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
		t, err := experiments.Run(id)
		if err != nil {
			return err
		}
		fmt.Println(t.Format())
	}
	return nil
}
