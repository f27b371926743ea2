package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadDir type-checks one directory of Go files as a stand-alone
// package under the given import path — the entry point the golden
// test harness uses for testdata fixture packages. The fixture may
// import standard-library and repro packages; export data for any
// import not already cached is resolved with an on-demand `go list`.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(files)
	return l.check(importPath, "", dir, files, nil)
}
