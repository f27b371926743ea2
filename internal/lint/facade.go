package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// FacadeConfig scopes the façade-only import contract: programs under
// cmd/ and examples/ reach the repository's functionality only through
// the import paths their Allowed entry lists (normally just the public
// faqs façade). Packages with no entry may import nothing from the
// module at all; Exempt harnesses may import anything, each with a
// recorded reason.
type FacadeConfig struct {
	Module  string              // module path, e.g. "repro"
	Allowed map[string][]string // package -> module imports it may use
	Exempt  map[string]string   // package -> why it bypasses the façade
}

// DefaultFacadeConfig is the repository's standing façade contract —
// the analyzer form of the Makefile's retired vet-imports grep, with
// the same bench/diagnostic-harness allowlist.
func DefaultFacadeConfig() FacadeConfig {
	return FacadeConfig{
		Module: ModulePath,
		Allowed: map[string][]string{
			"repro/cmd/faqd":                 {"repro/faqs"},
			"repro/cmd/faqw":                 {"repro/faqs"},
			"repro/cmd/faqrun":               {"repro/faqs"},
			"repro/cmd/faqlint":              {"repro/internal/lint"},
			"repro/examples/quickstart":      {"repro/faqs"},
			"repro/examples/triangle_cyclic": {"repro/faqs"},
			"repro/examples/pgm_marginals":   {"repro/faqs"},
			"repro/examples/sensor_network":  {"repro/faqs"},
			"repro/examples/mcm_pipeline":    {"repro/faqs"},
		},
		Exempt: map[string]string{
			"repro/cmd/faqbench": "regenerates the paper tables from the internals",
			"repro/cmd/ghdtool":  "dumps GYO traces no public API exposes",
		},
	}
}

// NewFacade builds the facade analyzer: cmd/ and examples/ programs
// must consume the repository only through their allowlisted façade
// imports. Non-test files only, matching the import graph `go list
// -f .Imports` exposes (what a built binary links).
func NewFacade(cfg FacadeConfig) *Analyzer {
	a := &Analyzer{
		Name: "facade",
		Doc:  "cmd/ and examples/ may reach repo functionality only through the faqs façade allowlist",
	}
	a.Run = func(pass *Pass) error {
		pkg := pass.Pkg
		if !strings.HasPrefix(pkg.ImportPath, cfg.Module+"/cmd/") &&
			!strings.HasPrefix(pkg.ImportPath, cfg.Module+"/examples/") {
			return nil
		}
		if _, ok := cfg.Exempt[pkg.ImportPath]; ok {
			return nil
		}
		allowed := make(map[string]bool)
		for _, imp := range cfg.Allowed[pkg.ImportPath] {
			allowed[imp] = true
		}
		_, listed := cfg.Allowed[pkg.ImportPath]
		for i, f := range pkg.Files {
			if pkg.IsTestFile(i) {
				continue
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if path != cfg.Module && !strings.HasPrefix(path, cfg.Module+"/") {
					continue
				}
				if allowed[path] {
					continue
				}
				reportFacade(pass, imp, path, listed)
			}
		}
		return nil
	}
	return a
}

func reportFacade(pass *Pass, imp *ast.ImportSpec, path string, listed bool) {
	if !listed {
		pass.Reportf(imp.Pos(),
			"package %s has no façade allowlist entry and may not import %s; route through the public faqs façade or add an entry to the facade analyzer config",
			pass.Pkg.ImportPath, path)
		return
	}
	pass.Reportf(imp.Pos(),
		"import of %s bypasses the faqs façade: %s may only import its allowlisted façade packages",
		path, pass.Pkg.ImportPath)
}
