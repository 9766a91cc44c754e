//go:build !amd64

package statevec

// forEachBodyPath calls f once per path the run bodies can take: off
// amd64 that is their Go loops alone.
func forEachBodyPath(f func(path string)) { f("go") }
