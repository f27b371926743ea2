// The reader package's own external test imports it, which does not
// make reader a test-support package.
package reader_test

import (
	"testing"

	"repro/internal/lint/testdata/src/deadexport/reader"
)

func TestRun(t *testing.T) { reader.Run() }
