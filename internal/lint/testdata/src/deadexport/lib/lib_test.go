package lib

import (
	"testing"

	"repro/internal/lint/testdata/src/deadexport/support"
)

func TestLib(t *testing.T) {
	TestOnly()
	support.Helper()
}
