package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// DeadExportConfig scopes the exported-means-used contract.
type DeadExportConfig struct {
	// Scope is the import-path prefix whose exported functions,
	// methods and types must have a non-test reader.
	Scope string
	// Module lists the packages whose non-test files count as readers.
	// Findings are reported only when the run analyzed all of them: a
	// narrower run never loaded some readers. Nil means the module's
	// packages as `go list ./...` prints them.
	Module []string
}

// DefaultDeadExportConfig covers every internal package.
func DefaultDeadExportConfig() DeadExportConfig {
	return DeadExportConfig{Scope: ModulePath + "/internal/"}
}

type deadDecl struct {
	key, pkg string
	pos      token.Pos
}

// NewDeadExport builds the deadexport analyzer: an exported function,
// method or type declared in a non-test file of a Scope package must be
// referenced by a non-test file of the module outside its own
// declaration. Exempt are methods that implement an interface (their
// callers dispatch dynamically) and every symbol of a test-support
// package, one that only other packages' tests import (obs/obstest).
//
// Each package is type-checked against its dependencies' export data,
// so one symbol is a different types.Object in each package that sees
// it: declarations and uses meet on objKey's string instead.
func NewDeadExport(cfg DeadExportConfig) *Analyzer {
	var (
		loader       *Loader
		decls        []deadDecl
		used         = make(map[string]bool)
		analyzed     = make(map[string]bool)
		imported     = make(map[string]bool) // by a non-test file
		testImported = make(map[string]bool) // by another package's test file
		ifaces       = make(map[string][]string)
		scanned      = make(map[string]bool)
		methodSets   []map[string]string // per named type: method name -> key
	)
	a := &Analyzer{
		Name: "deadexport",
		Doc:  "every exported function, method and type in internal/ has a non-test reader",
	}
	a.Run = func(pass *Pass) error {
		loader = pass.runner.Loader
		pkg := pass.Pkg
		analyzed[pkg.ImportPath] = true
		inScope := strings.HasPrefix(pkg.ImportPath, cfg.Scope) && !strings.HasSuffix(pkg.ImportPath, "_test")
		collectInterfaces(pkg, ifaces, scanned)
		for i, f := range pkg.Files {
			test := pkg.IsTestFile(i)
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if !test {
					imported[path] = true
				} else if path != pkg.ImportPath && path+"_test" != pkg.ImportPath {
					testImported[path] = true
				}
			}
			if test {
				continue
			}
			for _, d := range f.Decls {
				// own: the keys d declares; its uses of them are not reads.
				own := make(map[string]bool)
				var names []*ast.Ident
				var recv *ast.FieldList
				if fd, ok := d.(*ast.FuncDecl); ok {
					names, recv = []*ast.Ident{fd.Name}, fd.Recv
				} else if gd, ok := d.(*ast.GenDecl); ok {
					for _, s := range gd.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							names = append(names, ts.Name)
						}
					}
				}
				for _, id := range names {
					if k := objKey(pkg.Info.Defs[id]); k != "" {
						own[k] = true
						if inScope {
							decls = append(decls, deadDecl{key: k, pkg: pkg.ImportPath, pos: id.Pos()})
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if k := objKey(pkg.Info.Uses[id]); k != "" && !own[k] {
							used[k] = true
						}
					}
					return recv == nil || n != recv // a receiver names its own type
				})
			}
		}
		if !inScope || pkg.Types == nil {
			return nil
		}
		for _, name := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ms := make(map[string]string)
			for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				set := types.NewMethodSet(t)
				for i := 0; i < set.Len(); i++ {
					ms[set.At(i).Obj().Name()] = objKey(set.At(i).Obj())
				}
			}
			methodSets = append(methodSets, ms)
		}
		return nil
	}
	a.Finish = func(report func(token.Pos, string, ...any)) error {
		module := cfg.Module
		if module == nil && loader != nil {
			var err error
			if module, err = loader.list("./..."); err != nil {
				return err
			}
		}
		for _, p := range module {
			if !analyzed[p] {
				return errPartialRun // some readers were never loaded
			}
		}
		implements := make(map[string]bool)
		for _, ms := range methodSets {
		next:
			for _, names := range ifaces {
				for _, n := range names {
					if _, ok := ms[n]; !ok {
						continue next
					}
				}
				for _, n := range names {
					implements[ms[n]] = true
				}
			}
		}
		for _, d := range decls {
			if used[d.key] || implements[d.key] || (testImported[d.pkg] && !imported[d.pkg]) {
				continue
			}
			used[d.key] = true // a package analyzed twice reports once
			report(d.pos, "exported %s has no non-test reader: delete it, unexport it, or move it into a _test.go file",
				strings.TrimPrefix(d.key, d.pkg+"."))
		}
		return nil
	}
	return a
}

// objKey names a package-level function, method or type the same way in
// every type-checking universe: "<pkg path>.<name>" or
// "<pkg path>.<receiver type>.<method>", with a generic instantiation
// mapped to its origin. Anything else has no key.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return o.Pkg().Path() + "." + o.Name()
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
			return o.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + o.Name()
		}
	case *types.TypeName:
		if o.Parent() == o.Pkg().Scope() {
			return o.Pkg().Path() + "." + o.Name()
		}
	}
	return ""
}

// collectInterfaces records the sorted method names of every non-empty
// interface the package can see: its own and its imports' package-level
// interfaces, the interface types its syntax names (constraints,
// literals), error, and the errors package's Is/As/Unwrap protocol,
// whose interfaces are local to that package's functions. A named type
// whose method set holds all of an interface's names implements it.
func collectInterfaces(pkg *Package, ifaces map[string][]string, scanned map[string]bool) {
	addNames := func(names ...string) {
		sort.Strings(names)
		ifaces[strings.Join(names, ",")] = names
	}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			var names []string
			for i := 0; i < it.NumMethods(); i++ {
				names = append(names, it.Method(i).Name())
			}
			addNames(names...)
		}
	}
	for _, m := range []string{"Is", "As", "Unwrap"} {
		addNames("Error", m)
	}
	add(types.Universe.Lookup("error").Type())
	var scan func(p *types.Package)
	scan = func(p *types.Package) {
		if scanned[p.Path()] {
			return
		}
		scanned[p.Path()] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			scan(imp)
		}
	}
	if pkg.Types != nil {
		delete(scanned, pkg.Types.Path()) // seen through export data, without its unexported interfaces
		scan(pkg.Types)
	}
	for _, tv := range pkg.Info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
}
