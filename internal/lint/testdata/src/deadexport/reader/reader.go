// Package reader reads the lib fixture, and nothing imports it, so its
// own exported function has no reader.
package reader

import "repro/internal/lint/testdata/src/deadexport/lib"

func Run() int64 { // want `exported Run has no non-test reader`
	lib.Used()
	var t lib.T
	t.Read()
	_ = lib.NewBox(3).Get()
	_ = lib.Describe()
	return lib.Sum[int64](lib.Count{}, []int64{1, 2})
}
