//go:build race

package udptransport

// raceEnabled reports whether the race detector is instrumenting this
// build; it allocates for its own bookkeeping and makes sync.Pool drop
// items at random, so allocation budgets only hold without it.
const raceEnabled = true
