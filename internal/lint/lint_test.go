// Golden-file suites for the faqlint analyzers, in the style of
// x/tools' analysistest: each testdata/src fixture package seeds both
// violations and near-miss traps, and expectations are written in the
// fixture source as
//
//	... // want `regexp`
//
// comments on the line the finding must anchor to. A run fails on any
// finding without a matching want and on any want without a matching
// finding — so a seeded violation that stops firing and a trap that
// starts firing are both test failures.
package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// repoRoot walks up from the test's working directory to go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// sharedLoader is reused across subtests so `go list -export` runs and
// export-data resolution are paid once per `go test` invocation.
var sharedLoader *lint.Loader

func loader(t *testing.T) *lint.Loader {
	t.Helper()
	if sharedLoader == nil {
		sharedLoader = lint.NewLoader(repoRoot(t))
	}
	return sharedLoader
}

// fixture is one testdata package: the directory under testdata/src
// and the synthetic import path it is analyzed under (which is what
// scopes each analyzer's package matching).
type fixture struct {
	dir        string
	importPath string
}

func loadFixtures(t *testing.T, fixtures []fixture) ([]*lint.Package, []string) {
	t.Helper()
	l := loader(t)
	root := repoRoot(t)
	var pkgs []*lint.Package
	var dirs []string
	for _, fx := range fixtures {
		dir := filepath.Join(root, "internal", "lint", "testdata", "src", fx.dir)
		pkg, err := l.LoadDir(dir, fx.importPath)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", fx.dir, err)
		}
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("fixture %s has type errors: %v", fx.dir, pkg.TypeErrors)
		}
		pkgs = append(pkgs, pkg)
		dirs = append(dirs, dir)
	}
	return pkgs, dirs
}

// wantRE extracts the backquoted regexes of a `want` comment.
var (
	wantRE   = regexp.MustCompile("want((?:\\s+`[^`]*`)+)")
	quotedRE = regexp.MustCompile("`[^`]*`")
)

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// parseWants scans every fixture .go file for want comments.
func parseWants(t *testing.T, dirs []string) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			file := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				m := wantRE.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				for _, quoted := range quotedRE.FindAllString(m[1], -1) {
					pat := strings.Trim(quoted, "`")
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", file, i+1, pat, err)
					}
					wants = append(wants, &expectation{file: file, line: i + 1, re: re})
				}
			}
		}
	}
	return wants
}

// runGolden loads the fixtures, runs the analyzers, and reconciles
// findings against the want comments.
func runGolden(t *testing.T, fixtures []fixture, analyzers ...*lint.Analyzer) {
	t.Helper()
	pkgs, dirs := loadFixtures(t, fixtures)
	runner := &lint.Runner{Loader: loader(t), Analyzers: analyzers}
	diags, err := runner.RunPackages(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, dirs)
	if len(wants) == 0 {
		t.Fatal("fixture seeds no want comments: the suite would pass vacuously")
	}
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestGoldenFacade(t *testing.T) {
	runGolden(t, []fixture{
		{"facade/badcmd", "repro/cmd/badcmd"},
		{"facade/faqd", "repro/cmd/faqd"},
		{"facade/exempt", "repro/cmd/faqbench"},
		{"facade/internalpkg", "repro/internal/notacmd"},
	}, lint.NewFacade(lint.DefaultFacadeConfig()))
}

func TestGoldenNoPanic(t *testing.T) {
	cfg := lint.NoPanicConfig{
		Packages:  []string{"repro/internal/"},
		Contain:   map[string]string{"repro/internal/nopanicfix.contained": "fixture containment site"},
		MustIdiom: true,
	}
	runGolden(t, []fixture{{"nopanic/viol", "repro/internal/nopanicfix"}}, lint.NewNoPanic(cfg))
}

func TestGoldenMapIter(t *testing.T) {
	cfg := lint.MapIterConfig{
		Packages:  []string{"repro/internal/protocol"},
		SortFuncs: []string{"repro/internal/protocol.sortedUnique"},
	}
	runGolden(t, []fixture{{"mapiter/viol", "repro/internal/protocol"}}, lint.NewMapIter(cfg))
}

func TestGoldenCtxFlow(t *testing.T) {
	runGolden(t, []fixture{
		{"ctxflow/viol", "repro/internal/service"},
		{"ctxflow/mainpkg", "repro/cmd/faqd"},
	}, lint.NewCtxFlow(lint.DefaultCtxFlowConfig()))
}

func TestGoldenHotPath(t *testing.T) {
	runGolden(t, []fixture{{"hotpath/viol", "repro/internal/relation"}},
		lint.NewHotPath(lint.DefaultHotPathConfig()))
}

func TestGoldenFailpoint(t *testing.T) {
	cfg := lint.FailpointConfig{ChaosPackages: []string{"repro/internal/fixturefp"}}
	runGolden(t, []fixture{
		{"failpoint/viol", "repro/internal/fixturefp"},
		{"failpoint/outside", "repro/internal/outsidefp"},
	}, lint.NewFailpoint(cfg))
}

func TestGoldenMetricReg(t *testing.T) {
	runGolden(t, []fixture{
		{"metricreg/viol", "repro/internal/fixturemr"},
		{"metricreg/other", "repro/internal/othermr"},
	}, lint.NewMetricReg(lint.DefaultMetricRegConfig()))
}

// TestGoldenDeadExport loads the fixtures under their real import
// paths, so the reader package sees lib through compiler export data,
// as every package of a live run sees its dependencies.
func TestGoldenDeadExport(t *testing.T) {
	const root = "repro/internal/lint/testdata/src/deadexport/"
	cfg := lint.DeadExportConfig{Scope: root, Module: []string{root + "lib", root + "reader", root + "support"}}
	runGolden(t, []fixture{
		{"deadexport/lib", root + "lib"},
		{"deadexport/reader", root + "reader"},
		{"deadexport/support", root + "support"},
		{"deadexport/readertest", root + "reader_test"},
	}, lint.NewDeadExport(cfg))
}

// TestDeadExportNarrowRunIsSilent: a run over one package never loads
// the packages that read its exports, so deadexport must report nothing
// rather than flag symbols that are in fact read.
func TestDeadExportNarrowRunIsSilent(t *testing.T) {
	if testing.Short() {
		t.Skip("package-closure lint run skipped in -short mode")
	}
	runner := &lint.Runner{Loader: loader(t), Analyzers: []*lint.Analyzer{lint.NewDeadExport(lint.DefaultDeadExportConfig())}}
	diags, err := runner.Run([]string{"./internal/relation/"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("narrow run finding: %s", d)
	}
}

// TestFailpointNarrowRunIsSilent: a run over one chaos package loads
// its sweep but not the others', so failpoint must not judge coverage
// (exec's site is covered by exec's own TestChaos suite, unloaded here).
func TestFailpointNarrowRunIsSilent(t *testing.T) {
	if testing.Short() {
		t.Skip("package-closure lint run skipped in -short mode")
	}
	runner := &lint.Runner{Loader: loader(t), Analyzers: []*lint.Analyzer{lint.NewFailpoint(lint.DefaultFailpointConfig())}}
	diags, err := runner.Run([]string{"./internal/relation/"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("narrow run finding: %s", d)
	}
}

// TestGoldenPragmas exercises the pragma grammar itself (malformed,
// unknown-analyzer, empty-reason, and stale suppressions are all
// findings) under the full default analyzer suite.
func TestGoldenPragmas(t *testing.T) {
	runGolden(t, []fixture{{"pragmas/viol", "repro/internal/pragmafix"}},
		lint.NewAnalyzers()...)
}

// TestAnalyzerCatalogue pins the suite: exactly the eight contract
// analyzers, under their documented names.
func TestAnalyzerCatalogue(t *testing.T) {
	want := []string{"facade", "nopanic", "mapiter", "ctxflow", "hotpath", "failpoint", "metricreg", "deadexport"}
	as := lint.NewAnalyzers()
	if len(as) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(as), len(want))
	}
	for i, a := range as {
		if a.Name != want[i] {
			t.Errorf("analyzer %d: got %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc line", a.Name)
		}
	}
}

// TestTreeIsClean runs the full default suite over the live repository
// — the same run as `make lint` — and requires zero findings: every
// real violation is fixed or pragma-annotated with a reason.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo lint run skipped in -short mode")
	}
	runner := lint.NewRunner(loader(t))
	diags, err := runner.Run([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("live tree finding: %s", d)
	}
}

// TestFacadeContractIsLive proves the façade contract has teeth (the
// acceptance criterion): removing cmd/faqd's allowlist entry must make
// the facade analyzer fail the daemon.
func TestFacadeContractIsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("package-closure lint run skipped in -short mode")
	}
	cfg := lint.DefaultFacadeConfig()
	delete(cfg.Allowed, "repro/cmd/faqd")
	runner := &lint.Runner{Loader: loader(t), Analyzers: []*lint.Analyzer{lint.NewFacade(cfg)}}
	diags, err := runner.Run([]string{"./cmd/faqd"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "facade" && strings.Contains(d.Message, "repro/cmd/faqd") {
			found = true
		}
	}
	if !found {
		t.Fatal("deleting the cmd/faqd allowlist entry produced no facade finding: the contract is not live")
	}
}
