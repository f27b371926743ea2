package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ModulePath is the import-path root of this repository. The analyzers
// key their package scoping (internal/, cmd/, examples/, faqs) off it.
const ModulePath = "repro"

// Package is one type-checked unit of analysis: the syntax trees, the
// type information, and enough metadata for analyzers to scope
// themselves (import path, directory, which files are _test.go files).
type Package struct {
	ImportPath string // logical path, e.g. "repro/internal/plan"
	Name       string // package name ("main" for commands)
	Dir        string
	GoFiles    []string // absolute paths, parallel to Files
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error // non-fatal: analysis proceeds on partial info
}

// IsTestFile reports whether the i-th file of the package is a
// _test.go file.
func (p *Package) IsTestFile(i int) bool {
	return strings.HasSuffix(p.GoFiles[i], "_test.go")
}

// listPackage mirrors the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	ForTest    string
	GoFiles    []string
	Export     string
	Standard   bool
	ImportMap  map[string]string
	Module     *struct{ Path string }
}

// Loader turns `go list` package patterns into type-checked Packages.
// Dependencies are resolved from compiler export data produced by
// `go list -export`, so loading needs no network and no third-party
// tooling — only the Go toolchain that built the repository.
type Loader struct {
	ModuleDir string // repository root (directory holding go.mod)

	mu      sync.Mutex
	fset    *token.FileSet
	exports map[string]string // raw import path -> export data file
}

// NewLoader returns a Loader rooted at moduleDir.
func NewLoader(moduleDir string) *Loader {
	return &Loader{
		ModuleDir: moduleDir,
		fset:      token.NewFileSet(),
		exports:   make(map[string]string),
	}
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// goList runs `go list -deps -test -export -json` on the patterns and
// decodes the package stream.
func (l *Loader) goList(patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-deps", "-test", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModuleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// list returns the import paths of the packages the patterns match,
// without building or loading them.
func (l *Loader) list(patterns ...string) ([]string, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-f", "{{.ImportPath}}"}, patterns...)...)
	cmd.Dir = l.ModuleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	return strings.Fields(string(out)), nil
}

// Load lists the patterns, selects the analyzable module packages, and
// type-checks each one. For a package with in-package tests the [test]
// variant is analyzed (its GoFiles are the base files plus the test
// files); external foo_test packages are analyzed as their own unit;
// generated .test mains are skipped.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	listed, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}

	l.mu.Lock()
	for _, p := range listed {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	l.mu.Unlock()

	// Packages superseded by their in-package [test] variant.
	superseded := make(map[string]bool)
	for _, p := range listed {
		if p.ForTest != "" && p.ImportPath == p.ForTest+" ["+p.ForTest+".test]" {
			superseded[p.ForTest] = true
		}
	}

	var out []*Package
	for _, p := range listed {
		if p.Standard || p.Module == nil || p.Module.Path != ModulePath {
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // generated test main
		}
		logical := p.ImportPath
		if p.ForTest != "" {
			if i := strings.IndexByte(logical, ' '); i >= 0 {
				logical = logical[:i]
			}
		}
		if p.ForTest == "" && superseded[p.ImportPath] {
			continue
		}
		pkg, err := l.check(logical, p.Name, p.Dir, absFiles(p.Dir, p.GoFiles), p.ImportMap)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ImportPath != out[j].ImportPath {
			return out[i].ImportPath < out[j].ImportPath
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		if filepath.IsAbs(n) {
			out[i] = n
		} else {
			out[i] = filepath.Join(dir, n)
		}
	}
	return out
}

// check parses and type-checks one package. Type errors are collected,
// not fatal: analyzers run on whatever information resolved.
func (l *Loader) check(importPath, name, dir string, goFiles []string, importMap map[string]string) (*Package, error) {
	pkg := &Package{ImportPath: importPath, Name: name, Dir: dir, GoFiles: goFiles}
	for _, f := range goFiles {
		af, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		pkg.Files = append(pkg.Files, af)
	}
	if pkg.Name == "" && len(pkg.Files) > 0 {
		pkg.Name = pkg.Files[0].Name.Name
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l.importerFor(importMap),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check's error duplicates the first collected TypeError; partial
	// information is still attached, which is all analysis needs.
	tpkg, _ := conf.Check(importPath, l.fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	return pkg, nil
}

// importerFor builds a dependency importer for one package: import
// paths go through the package's ImportMap (the test-variant
// redirection `go list -test` reports), then resolve to compiler
// export data. A fresh gc importer per package keeps the per-path
// cache consistent with that package's map.
func (l *Loader) importerFor(importMap map[string]string) types.Importer {
	inner := importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, err := l.exportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	})
	return &mapImporter{inner: inner, importMap: importMap}
}

// exportFile resolves an import path to its export data file, shelling
// out to `go list -export` once for paths outside the already-listed
// closure (testdata fixtures importing std packages no repo file uses).
func (l *Loader) exportFile(path string) (string, error) {
	l.mu.Lock()
	if f, ok := l.exports[path]; ok {
		l.mu.Unlock()
		return f, nil
	}
	l.mu.Unlock()
	listed, err := l.goList([]string{path})
	if err != nil {
		return "", fmt.Errorf("lint: no export data for %q: %v", path, err)
	}
	l.mu.Lock()
	for _, p := range listed {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	f, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("lint: no export data for %q", path)
	}
	return f, nil
}

type mapImporter struct {
	inner     types.Importer
	importMap map[string]string
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	return m.inner.Import(path)
}
