package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathConfig scopes the kernel allocation-discipline contract.
type HotPathConfig struct {
	Packages []string
}

// DefaultHotPathConfig covers the relation kernels, the packed-key
// package, and the three layers that match rows with them — the
// protocol engine (converge-cast streams are sorted relations), cluster
// sharding, and incremental views (whose contribution ledgers are
// sorted relations) — whose allocation discipline depends on packed
// keys and sorted order instead of string-keyed state.
func DefaultHotPathConfig() HotPathConfig {
	return HotPathConfig{Packages: []string{
		"repro/internal/relation",
		"repro/internal/keys",
		"repro/internal/protocol",
		"repro/internal/shard",
		"repro/internal/delta",
	}}
}

// NewHotPath builds the hotpath analyzer: no string-keyed map state
// and no string-concatenation keys inside kernel function bodies. The
// kernels key rows by packed uint64s and sorted order at every arity, so
// any string-keyed state is a build failure, pinning PR 1's allocation
// win against regression; an exception must carry a
// //faqlint:allow hotpath(reason) pragma at the site it costs at.
func NewHotPath(cfg HotPathConfig) *Analyzer {
	a := &Analyzer{
		Name: "hotpath",
		Doc:  "no string-keyed maps or string-concatenation keys in kernel functions",
	}
	a.Run = func(pass *Pass) error {
		if !matchPackage(cfg.Packages, pass.Pkg.ImportPath) {
			return nil
		}
		for i, f := range pass.Pkg.Files {
			if pass.Pkg.IsTestFile(i) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkHotPath(pass, fd)
			}
		}
		return nil
	}
	return a
}

func checkHotPath(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.MapType:
			if isStringType(pass.Pkg.Info.TypeOf(n.Key)) {
				pass.Reportf(n.Pos(),
					"string-keyed map state in a kernel function: pack the key columns (internal/keys) or annotate with //faqlint:allow hotpath(reason)")
			}
		case *ast.IndexExpr:
			// String concatenation building a map key at the index
			// site: allocates a fresh key string per probe.
			if _, isMap := underlyingMap(pass.Pkg.Info.TypeOf(n.X)); !isMap {
				return true
			}
			if bin, ok := n.Index.(*ast.BinaryExpr); ok && bin.Op == token.ADD &&
				isStringType(pass.Pkg.Info.TypeOf(bin)) {
				pass.Reportf(bin.Pos(),
					"string-concatenation map key on a kernel path: pack the key columns (internal/keys) or annotate with //faqlint:allow hotpath(reason)")
			}
		}
		return true
	})
}

func underlyingMap(t types.Type) (*types.Map, bool) {
	if t == nil {
		return nil, false
	}
	m, ok := t.Underlying().(*types.Map)
	return m, ok
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
