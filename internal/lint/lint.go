// Package lint is faqlint: the repository's static-analysis suite. It
// compiles the ROADMAP's standing contracts — the faqs façade is the
// only embedding surface, typed errors never panics, deterministic
// (bit-identical) answers, the allocation discipline of the relation
// kernels, the failpoint/chaos-sweep coverage invariants, and exported
// means used (every exported name in internal/ has a non-test reader) — into
// machine-checked analyzers, so violating a contract is a build
// failure in `make lint` / CI rather than a flaky runtime find.
//
// The framework is a deliberately small, dependency-free analogue of
// golang.org/x/tools/go/analysis (the container this repository builds
// in has no module proxy access, so x/tools cannot be vendored): an
// Analyzer carries a per-package Run over parsed+type-checked syntax
// and an optional whole-repo Finish for cross-package invariants; a
// Runner loads packages via `go list -export` compiler export data and
// reports position-sorted Diagnostics.
//
// Intentional violations are annotated in source:
//
//	//faqlint:allow <analyzer>(<reason>)
//
// placed on the flagged line or the line directly above. The reason is
// mandatory — an empty reason is itself a finding — so every
// suppression documents why the contract does not apply at that site.
package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named contract check. Run is invoked once per
// analyzed package; Finish, when non-nil, once after every package has
// run — the hook for whole-repo invariants (e.g. failpoint-name
// uniqueness and chaos-sweep coverage). Analyzers holding Finish state
// are built fresh per Runner via NewAnalyzers.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// Finish reports cross-package findings through the reporter. It
	// returns errPartialRun when the analyzed packages cannot decide
	// the contract; the Runner then judges none of its pragmas stale.
	Finish func(report func(token.Pos, string, ...any)) error
}

// errPartialRun is Finish's verdict that the run loaded too little of
// the module to check its contract.
var errPartialRun = errors.New("lint: run does not cover the contract")

// Pass is the per-package view handed to an analyzer's Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	runner   *Runner
}

// Reportf records a finding at pos. Findings suppressed by a
// //faqlint:allow pragma for this analyzer are dropped by the Runner.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.runner.report(p.Analyzer.Name, pos, format, args...)
}

// allowPragma is one parsed //faqlint:allow occurrence.
type allowPragma struct {
	pos      token.Pos
	line     int
	file     string
	analyzer string
	reason   string
	used     bool
}

// pragmaRE matches a "//faqlint:allow <name>(<reason>)" directive
// comment (directive style: no space after //, pragma at the start of
// the comment — prose merely mentioning the syntax does not trigger).
// The reason group is everything between the outermost parentheses and
// may be empty (which the Runner reports as a finding).
var pragmaRE = regexp.MustCompile(`^//faqlint:allow\s+([a-zA-Z0-9_-]+)\((.*)\)`)

// bareAllowRE catches a "//faqlint:allow name" directive with no
// parenthesized reason at all, so the mandatory-reason rule cannot be
// dodged by omitting the parentheses.
var bareAllowRE = regexp.MustCompile(`^//faqlint:allow\s+([a-zA-Z0-9_-]+)\s*($|[^(\s])`)

// Runner executes a set of analyzers over packages, applies pragma
// suppression, and accumulates deduplicated, position-sorted findings.
type Runner struct {
	Loader    *Loader
	Analyzers []*Analyzer

	diags   []Diagnostic
	seen    map[string]bool
	pragmas map[string][]*allowPragma // file -> pragmas, ordered by line
}

// NewRunner builds a Runner over a fresh default analyzer set.
func NewRunner(loader *Loader) *Runner {
	return &Runner{Loader: loader, Analyzers: NewAnalyzers()}
}

// report resolves, pragma-filters, dedupes, and stores one finding.
func (r *Runner) report(analyzer string, pos token.Pos, format string, args ...any) {
	position := r.Loader.Fset().Position(pos)
	if r.allowed(analyzer, position) {
		return
	}
	d := Diagnostic{Pos: position, Analyzer: analyzer, Message: fmt.Sprintf(format, args...)}
	key := d.String()
	if r.seen == nil {
		r.seen = make(map[string]bool)
	}
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	r.diags = append(r.diags, d)
}

// allowed reports whether an allow pragma for the analyzer sits on the
// finding's line or the line directly above, and marks it used.
func (r *Runner) allowed(analyzer string, pos token.Position) bool {
	for _, p := range r.pragmas[pos.Filename] {
		if p.analyzer != analyzer || p.reason == "" {
			continue
		}
		if p.line == pos.Line || p.line == pos.Line-1 {
			p.used = true
			return true
		}
	}
	return false
}

// scanPragmas indexes every //faqlint:allow occurrence in the package
// and reports malformed ones (missing reason, unknown analyzer name).
// Pragma names validate against the full analyzer catalogue, not the
// runner's possibly-restricted subset (`faqlint -only facade` must not
// misreport a nopanic pragma as unknown).
func (r *Runner) scanPragmas(pkg *Package) {
	if r.pragmas == nil {
		r.pragmas = make(map[string][]*allowPragma)
	}
	known := make(map[string]bool)
	for _, a := range NewAnalyzers() {
		known[a.Name] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				m := pragmaRE.FindStringSubmatch(text)
				if m == nil {
					if bm := bareAllowRE.FindStringSubmatch(text); bm != nil {
						r.report("faqlint", c.Pos(),
							"malformed pragma: want //faqlint:allow %s(<reason>)", bm[1])
					}
					continue
				}
				position := r.Loader.Fset().Position(c.Pos())
				p := &allowPragma{
					pos:      c.Pos(),
					line:     position.Line,
					file:     position.Filename,
					analyzer: m[1],
					reason:   strings.TrimSpace(m[2]),
				}
				if !known[p.analyzer] {
					r.report("faqlint", c.Pos(), "pragma names unknown analyzer %q", p.analyzer)
					continue
				}
				if p.reason == "" {
					r.report("faqlint", c.Pos(),
						"pragma for %q requires a reason: //faqlint:allow %s(<reason>)", p.analyzer, p.analyzer)
					continue
				}
				r.pragmas[p.file] = append(r.pragmas[p.file], p)
			}
		}
	}
}

// Run loads the patterns and executes every analyzer, returning the
// sorted findings. A non-nil error means the run itself failed (load
// or analyzer error), not that findings exist.
func (r *Runner) Run(patterns []string) ([]Diagnostic, error) {
	pkgs, err := r.Loader.Load(patterns)
	if err != nil {
		return nil, err
	}
	return r.RunPackages(pkgs)
}

// RunPackages executes the analyzers over already-loaded packages.
func (r *Runner) RunPackages(pkgs []*Package) ([]Diagnostic, error) {
	for _, pkg := range pkgs {
		r.scanPragmas(pkg)
	}
	for _, pkg := range pkgs {
		for _, a := range r.Analyzers {
			pass := &Pass{Analyzer: a, Fset: r.Loader.Fset(), Pkg: pkg, runner: r}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
	judged := make(map[string]bool, len(r.Analyzers))
	for _, a := range r.Analyzers {
		judged[a.Name] = true
		if a.Finish == nil {
			continue
		}
		name := a.Name
		err := a.Finish(func(pos token.Pos, format string, args ...any) {
			r.report(name, pos, format, args...)
		})
		if errors.Is(err, errPartialRun) {
			judged[name] = false
		} else if err != nil {
			return nil, fmt.Errorf("lint: %s finish: %v", name, err)
		}
	}
	r.reportUnusedPragmas(judged)
	sort.Slice(r.diags, func(i, j int) bool {
		a, b := r.diags[i], r.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return r.diags, nil
}

// reportUnusedPragmas flags allow pragmas that suppressed nothing —
// stale suppressions are contract documentation that has drifted from
// the code and must be deleted rather than accumulate. Only pragmas
// of judged analyzers count: under a restricted `-only` run the other
// pragmas never had a finding to suppress, nor do those of an analyzer
// whose Finish found the run too partial to check.
func (r *Runner) reportUnusedPragmas(judged map[string]bool) {
	for _, ps := range r.pragmas {
		for _, p := range ps {
			if !p.used && judged[p.analyzer] {
				r.report("faqlint", p.pos, "unused pragma: no %s finding on this or the next line", p.analyzer)
			}
		}
	}
}

// NewAnalyzers builds a fresh instance of the full analyzer suite (the
// eight repo contracts). Fresh instances matter because some analyzers
// accumulate cross-package state consumed by Finish.
func NewAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewFacade(DefaultFacadeConfig()),
		NewNoPanic(DefaultNoPanicConfig()),
		NewMapIter(DefaultMapIterConfig()),
		NewCtxFlow(DefaultCtxFlowConfig()),
		NewHotPath(DefaultHotPathConfig()),
		NewFailpoint(DefaultFailpointConfig()),
		NewMetricReg(DefaultMetricRegConfig()),
		NewDeadExport(DefaultDeadExportConfig()),
	}
}

// --- shared AST/type helpers used by several analyzers ---

// funcFor returns the top-level function declaration enclosing pos in
// the file, or nil.
func funcFor(f *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// calleeIdent unwraps a call's function expression to its identifier:
// `f(...)` yields f, `pkg.F(...)` yields F, anything else nil.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn
	case *ast.SelectorExpr:
		return fn.Sel
	}
	return nil
}

// isPkgFunc reports whether the call's callee resolves (via type info)
// to the named function of the named package.
func isPkgFunc(pass *Pass, call *ast.CallExpr, pkgPath, name string) bool {
	id := calleeIdent(call)
	if id == nil || id.Name != name {
		return false
	}
	obj := pass.Pkg.Info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath
}
