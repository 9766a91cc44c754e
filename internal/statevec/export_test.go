package statevec

// ForEachBodyPath hands forEachBodyPath to the package's external tests
// (diagrun_test.go takes its runs from compile, which imports statevec).
var ForEachBodyPath = forEachBodyPath
