package lint

import (
	"go/ast"
	"go/token"
	"path"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// FailpointConfig scopes the failpoint registration and chaos-sweep
// coverage contract.
type FailpointConfig struct {
	// ChaosPackages mirrors the Makefile's CHAOS_PKGS: the packages
	// whose TestChaos* functions the `make chaos` sweep runs.
	ChaosPackages []string
	// Exempt packages may arm failpoints in arbitrarily-named tests,
	// each with a recorded reason.
	Exempt map[string]string
}

// DefaultFailpointConfig is the repository's chaos-suite wiring.
func DefaultFailpointConfig() FailpointConfig {
	return FailpointConfig{
		ChaosPackages: []string{
			"repro/internal/service",
			"repro/internal/delta",
			"repro/internal/relation",
			"repro/internal/protocol",
			"repro/internal/exec",
			"repro/internal/rpc",
			"repro/internal/cluster",
			"repro/faqs",
			"repro/cmd/faqd",
		},
		Exempt: map[string]string{
			"repro/internal/fault": "the registry's own unit suite exercises arming directly; its behaviors are not chaos sweeps",
		},
	}
}

// siteNameRE is the <pkg>.<site> grammar for failpoint names.
var siteNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*\.[a-z][a-z0-9_]*$`)

type fpSite struct {
	name string
	pos  token.Pos
	pkg  string
}

// NewFailpoint builds the failpoint analyzer:
//
//   - fault.Register / faqs.RegisterFailpoint call sites in non-test
//     code must pass a unique string literal matching the
//     `<pkg>.<site>` grammar, with <pkg> the registering package;
//   - every registered site must appear in the chaos-suite coverage
//     literals (the chaosSites lists and arming specs inside TestChaos*
//     files), so a refactor cannot silently drop a site from the sweep;
//   - a test function that arms failpoints (fault.Enable /
//     fault.EnableSpec / faqs.EnableFailpoints, directly or through
//     package-local helpers) must be named TestChaos* and live in a
//     chaos-sweep package, so `go test -run TestChaos` provably runs it.
func NewFailpoint(cfg FailpointConfig) *Analyzer {
	chaosPkgs := make(map[string]bool, len(cfg.ChaosPackages))
	for _, p := range cfg.ChaosPackages {
		chaosPkgs[p] = true
	}
	var (
		registered []fpSite
		covered    []string // string literals inside chaos test files
		analyzed   = make(map[string]bool)
	)
	a := &Analyzer{
		Name: "failpoint",
		Doc:  "failpoint sites use unique <pkg>.<site> literals and stay covered by the TestChaos sweep",
	}
	a.Run = func(pass *Pass) error {
		if !strings.HasPrefix(pass.Pkg.ImportPath, ModulePath+"/") && pass.Pkg.ImportPath != ModulePath {
			return nil
		}
		analyzed[strings.TrimSuffix(pass.Pkg.ImportPath, "_test")] = true
		sitePrefix := pass.Pkg.Name
		if sitePrefix == "main" {
			sitePrefix = path.Base(pass.Pkg.ImportPath)
		}
		armedOutsideSweep := false
		for i, f := range pass.Pkg.Files {
			if pass.Pkg.IsTestFile(i) {
				if hasChaosTest(f) {
					covered = append(covered, stringLiterals(f)...)
				}
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isRegisterCall(pass, call) || len(call.Args) != 1 {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					pass.Reportf(call.Pos(),
						"failpoint registration must use a string-literal site name (the sweep and coverage checks are static)")
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				if !siteNameRE.MatchString(name) {
					pass.Reportf(lit.Pos(),
						"failpoint name %q does not match the <pkg>.<site> grammar (lowercase, e.g. %q)", name, sitePrefix+".mysite")
				} else if prefix, _, _ := strings.Cut(name, "."); prefix != sitePrefix {
					pass.Reportf(lit.Pos(),
						"failpoint %q registered by package %s: the <pkg> segment must be %q", name, pass.Pkg.ImportPath, sitePrefix)
				}
				registered = append(registered, fpSite{name: name, pos: lit.Pos(), pkg: pass.Pkg.ImportPath})
				return true
			})
		}
		// Convention: arming tests are TestChaos* in a sweep package.
		if _, exempt := cfg.Exempt[pass.Pkg.ImportPath]; exempt {
			return nil
		}
		arming := armingFuncs(pass)
		for i, f := range pass.Pkg.Files {
			if !pass.Pkg.IsTestFile(i) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Test") {
					continue
				}
				if !arming[fd.Name.Name] {
					continue
				}
				if !strings.HasPrefix(fd.Name.Name, "TestChaos") {
					pass.Reportf(fd.Name.Pos(),
						"%s arms failpoints but is not named TestChaos*: the `make chaos` sweep (-run TestChaos) would not run it",
						fd.Name.Name)
				}
				if !chaosPkgs[pass.Pkg.ImportPath] && !armedOutsideSweep {
					armedOutsideSweep = true
					pass.Reportf(fd.Name.Pos(),
						"package %s arms failpoints in tests but is not in the chaos sweep (Makefile CHAOS_PKGS / failpoint analyzer ChaosPackages)",
						pass.Pkg.ImportPath)
				}
			}
		}
		return nil
	}
	a.Finish = func(report func(token.Pos, string, ...any)) error {
		sort.Slice(registered, func(i, j int) bool { return registered[i].pos < registered[j].pos })
		byName := make(map[string]fpSite, len(registered))
		for _, s := range registered {
			if first, dup := byName[s.name]; dup && first.pkg != s.pkg {
				// Same-package re-registration is the idempotent-Register
				// idiom; a second package claiming the name is a clash.
				report(s.pos, "failpoint name %q already registered by %s: site names must be unique", s.name, first.pkg)
				continue
			}
			byName[s.name] = s
		}
		for _, p := range cfg.ChaosPackages {
			if !analyzed[p] {
				return errPartialRun // some chaos suites were never loaded
			}
		}
		blob := strings.Join(covered, "\x00")
		for _, name := range sortedKeys(byName) {
			if !strings.Contains(blob, name) {
				s := byName[name]
				report(s.pos,
					"failpoint %q is not referenced by any TestChaos* suite: add it to a chaos coverage list so the sweep exercises it", name)
			}
		}
		return nil
	}
	return a
}

func sortedKeys(m map[string]fpSite) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// isRegisterCall matches fault.Register and faqs.RegisterFailpoint.
func isRegisterCall(pass *Pass, call *ast.CallExpr) bool {
	return isPkgFunc(pass, call, ModulePath+"/internal/fault", "Register") ||
		isPkgFunc(pass, call, ModulePath+"/faqs", "RegisterFailpoint")
}

// isArmingCall matches the calls that arm failpoints: fault.Enable,
// fault.EnableSpec, faqs.EnableFailpoints.
func isArmingCall(pass *Pass, call *ast.CallExpr) bool {
	return isPkgFunc(pass, call, ModulePath+"/internal/fault", "Enable") ||
		isPkgFunc(pass, call, ModulePath+"/internal/fault", "EnableSpec") ||
		isPkgFunc(pass, call, ModulePath+"/faqs", "EnableFailpoints")
}

// armingFuncs computes, to a fixed point over the package-local call
// graph, the set of top-level functions that (transitively) arm
// failpoints — so a Test that arms through a helper is still caught.
func armingFuncs(pass *Pass) map[string]bool {
	arms := make(map[string]bool)
	calls := make(map[string]map[string]bool)
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if calls[name] == nil {
				calls[name] = make(map[string]bool)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isArmingCall(pass, call) {
					arms[name] = true
				}
				if id, ok := call.Fun.(*ast.Ident); ok {
					calls[name][id.Name] = true
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for caller, callees := range calls {
			if arms[caller] {
				continue
			}
			for callee := range callees {
				if arms[callee] {
					arms[caller] = true
					changed = true
					break
				}
			}
		}
	}
	return arms
}

// hasChaosTest reports whether the file declares a TestChaos* func.
func hasChaosTest(f *ast.File) bool {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "TestChaos") {
			return true
		}
	}
	return false
}

// stringLiterals collects every string literal in the file.
func stringLiterals(f *ast.File) []string {
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil && s != "" {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}
