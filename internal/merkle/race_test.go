//go:build race

package merkle

// raceEnabled reports whether the race detector is instrumenting this
// build; its shadow-memory bookkeeping allocates, so allocation-count
// assertions only hold without it.
const raceEnabled = true
