package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// MetricRegConfig scopes the metric-registration contract.
type MetricRegConfig struct {
	// Package is the import path of the metrics registry package whose
	// New* registration methods the contract covers.
	Package string
}

// DefaultMetricRegConfig covers the repository's obs registry.
func DefaultMetricRegConfig() MetricRegConfig {
	return MetricRegConfig{Package: ModulePath + "/internal/obs"}
}

// metricNameRE is the Prometheus metric-name grammar the obs registry
// enforces at runtime; the analyzer enforces it at lint time so a bad
// name is a build-stage finding, not a first-scrape panic.
var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// registerMethods are the obs.Registry registration entry points; for
// every one of them the metric name is argument 0 and the help text is
// argument 1.
var registerMethods = map[string]bool{
	"NewCounter": true, "NewGauge": true, "NewHistogram": true,
	"NewCounterVec": true, "NewHistogramVec": true,
}

type metricSite struct {
	name string
	pos  token.Pos
	pkg  string
}

// NewMetricReg builds the metricreg analyzer:
//
//   - obs registry New* call sites in non-test code must pass the
//     metric name as a string literal matching the Prometheus name
//     grammar — the exposition surface and the README catalogue are
//     greppable only if names are static;
//   - the help text must be a non-empty string literal (every family
//     renders a # HELP line an operator will read);
//   - a metric name may be registered by only one package. Re-use
//     within a package is the idempotent-registration idiom (services
//     bind shared families per semiring); a second package claiming
//     the name is a clash the runtime would only catch if both
//     registrations ever met on one registry.
//
// Test files are skipped: throwaway registries in tests may mint
// names freely.
func NewMetricReg(cfg MetricRegConfig) *Analyzer {
	var registered []metricSite
	a := &Analyzer{
		Name: "metricreg",
		Doc:  "metric registrations use unique string-literal names with non-empty help text",
	}
	a.Run = func(pass *Pass) error {
		if !strings.HasPrefix(pass.Pkg.ImportPath, ModulePath+"/") && pass.Pkg.ImportPath != ModulePath {
			return nil
		}
		for i, f := range pass.Pkg.Files {
			if pass.Pkg.IsTestFile(i) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isMetricRegisterCall(pass, call, cfg.Package) || len(call.Args) < 2 {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					pass.Reportf(call.Pos(),
						"metric registration must use a string-literal name (the /metrics catalogue and uniqueness checks are static)")
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				if !metricNameRE.MatchString(name) {
					pass.Reportf(lit.Pos(),
						"metric name %q is not a valid metric name ([a-zA-Z_:][a-zA-Z0-9_:]*)", name)
				} else {
					registered = append(registered, metricSite{name: name, pos: lit.Pos(), pkg: pass.Pkg.ImportPath})
				}
				help, ok := call.Args[1].(*ast.BasicLit)
				if !ok || help.Kind != token.STRING {
					pass.Reportf(call.Args[1].Pos(),
						"metric %q: help text must be a string literal (it renders as the # HELP line)", name)
					return true
				}
				if s, err := strconv.Unquote(help.Value); err == nil && strings.TrimSpace(s) == "" {
					pass.Reportf(help.Pos(),
						"metric %q: help text must be non-empty (every family renders a # HELP line)", name)
				}
				return true
			})
		}
		return nil
	}
	a.Finish = func(report func(token.Pos, string, ...any)) error {
		sort.Slice(registered, func(i, j int) bool { return registered[i].pos < registered[j].pos })
		byName := make(map[string]metricSite, len(registered))
		for _, s := range registered {
			if first, dup := byName[s.name]; dup && first.pkg != s.pkg {
				report(s.pos, "metric name %q already registered by %s: family names must be unique across packages", s.name, first.pkg)
				continue
			}
			byName[s.name] = s
		}
		return nil
	}
	return a
}

// isMetricRegisterCall matches the registry's New* registration
// methods by resolving the callee to the obs package — it matches the
// call whether it goes through *obs.Registry directly, obs.Default(),
// or the faqs façade's Registry alias.
func isMetricRegisterCall(pass *Pass, call *ast.CallExpr, pkgPath string) bool {
	id := calleeIdent(call)
	if id == nil || !registerMethods[id.Name] {
		return false
	}
	return isPkgFunc(pass, call, pkgPath, id.Name)
}
