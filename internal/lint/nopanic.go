package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoPanicConfig scopes the "typed errors, never panics" contract.
type NoPanicConfig struct {
	// Packages (by prefix for trailing "/", exact otherwise) the
	// contract covers.
	Packages []string
	// Contain maps "pkgpath.FuncName" containment sites — the places
	// that are *allowed* to panic because panicking is their job
	// (failpoint panic modes, the exec layer's panic normalization) —
	// to the reason they are exempt.
	Contain map[string]string
	// MustIdiom, when true, exempts exported Must-prefixed functions:
	// the documented panic-on-error constructor idiom (MustSchema) for
	// statically-known inputs.
	MustIdiom bool
}

// DefaultNoPanicConfig is the repository's standing contract: internal
// packages and the public façade return typed errors; panics are
// confined to the failpoint registry's injection modes and the exec
// layer's panic containment plumbing.
func DefaultNoPanicConfig() NoPanicConfig {
	return NoPanicConfig{
		Packages: []string{"repro/internal/", "repro/faqs"},
		Contain: map[string]string{
			"repro/internal/fault.hitSlow":    "ModePanic is the failpoint contract: injected panics are the chaos suite's input",
			"repro/internal/fault.Inject":     "ctx-less kernel sites surface every failing mode as a typed *InjectedPanic",
			"repro/internal/fault.init":       "a silently ignored FAQ_FAILPOINTS chaos spec would report a clean run that tested nothing",
			"repro/internal/exec.rethrow":     "re-raises a captured task panic on the calling goroutine (containment plumbing)",
			"repro/internal/exec.wrapPanic":   "normalizes sequential-path panics into the *TaskPanic shape the parallel paths produce",
			"repro/internal/exec.Map":         "re-raises the captured *TaskPanic on the caller once all workers drain (containment plumbing)",
			"repro/internal/obs.mustRegister": "metric registration mismatches are programmer errors caught at init, not runtime conditions to return",
		},
		MustIdiom: true,
	}
}

// NewNoPanic builds the nopanic analyzer: no naked panic / log.Fatal /
// os.Exit in the covered packages outside the whitelisted containment
// sites, Must* constructors, and pragma-annotated invariant checks.
func NewNoPanic(cfg NoPanicConfig) *Analyzer {
	a := &Analyzer{
		Name: "nopanic",
		Doc:  "internal packages return typed errors; panic/log.Fatal/os.Exit only at whitelisted containment sites",
	}
	a.Run = func(pass *Pass) error {
		if !matchPackage(cfg.Packages, pass.Pkg.ImportPath) {
			return nil
		}
		for i, f := range pass.Pkg.Files {
			if pass.Pkg.IsTestFile(i) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				kind := panicKind(pass, call)
				if kind == "" {
					return true
				}
				if fd := funcFor(f, call.Pos()); fd != nil {
					key := pass.Pkg.ImportPath + "." + fd.Name.Name
					if _, ok := cfg.Contain[key]; ok {
						return true
					}
					if cfg.MustIdiom && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Must") {
						return true
					}
				}
				pass.Reportf(call.Pos(),
					"%s in %s: the contract is typed errors, never panics; return an error, or annotate an invariant check with //faqlint:allow nopanic(reason)",
					kind, pass.Pkg.ImportPath)
				return true
			})
		}
		return nil
	}
	return a
}

// panicKind classifies a call as a contract violation: the panic
// builtin, log.Fatal*, or os.Exit. Empty string for anything else.
func panicKind(pass *Pass, call *ast.CallExpr) string {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			return "panic"
		}
		return ""
	}
	for _, fn := range []string{"Fatal", "Fatalf", "Fatalln"} {
		if isPkgFunc(pass, call, "log", fn) {
			return "log." + fn
		}
	}
	if isPkgFunc(pass, call, "os", "Exit") {
		return "os.Exit"
	}
	return ""
}

// matchPackage reports whether path matches one of the patterns
// (prefix match for patterns ending in "/", exact otherwise).
func matchPackage(patterns []string, path string) bool {
	for _, p := range patterns {
		if strings.HasSuffix(p, "/") {
			if strings.HasPrefix(path, p) {
				return true
			}
		} else if path == p {
			return true
		}
	}
	return false
}
