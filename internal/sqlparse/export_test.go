package sqlparse

// Hooks for parsematch_test.go, an external test package so that it can
// draw inputs from the synth generators, which import this package.
var (
	DiffReference = diffReference
	TestLiterals  = testLiterals
)
