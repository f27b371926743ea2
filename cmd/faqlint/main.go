// Command faqlint is the repository's static-analysis multichecker: it
// runs the internal/lint analyzer suite — the machine-checked form of
// the ROADMAP's standing contracts — over the given package patterns
// and exits nonzero when any unsuppressed finding remains.
//
// Usage:
//
//	faqlint [-only a,b] [-list] [packages...]
//
// With no packages, ./... is analyzed. -only restricts the run to a
// comma-separated subset of analyzers (e.g. `-only facade` checks the
// public-API contract alone). -list prints the analyzer catalogue.
// Intentional violations are suppressed in source with
// //faqlint:allow <analyzer>(<reason>); the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer subset to run (default: all)")
	list := flag.Bool("list", false, "print the analyzer catalogue and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: faqlint [-only a,b] [-list] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	moduleDir, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "faqlint:", err)
		os.Exit(1)
	}
	runner := lint.NewRunner(lint.NewLoader(moduleDir))

	if *list {
		for _, a := range runner.Analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		var keep []*lint.Analyzer
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			found := false
			for _, a := range runner.Analyzers {
				if a.Name == name {
					keep = append(keep, a)
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "faqlint: unknown analyzer %q (see faqlint -list)\n", name)
				os.Exit(2)
			}
		}
		runner.Analyzers = keep
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := runner.Run(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faqlint:", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Printf("%s: %s: %s\n", relPos(moduleDir, d.Pos.String()), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "faqlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}

// relPos rewrites an absolute file position relative to the module
// root for stable, readable output.
func relPos(moduleDir, pos string) string {
	if rel, err := filepath.Rel(moduleDir, pos); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return pos
}
