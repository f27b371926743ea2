// Package support is test support: only another package's test imports
// it, so its exported symbols need no non-test reader.
package support

func Helper() {}
