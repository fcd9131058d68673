// Fixture for hotpathalloc escape mode: allocations the syntactic
// pre-filter cannot see, caught by the compiler's -m=2 diagnostics.
package a

var sink *int

// Hot leaks a local through a package variable — invisible syntactically,
// "moved to heap" to the compiler.
//
//alpha:hotpath
func Hot(v int) int {
	x := v // want `x escapes to heap in hot path a\.Hot \[compiler escape analysis\]: flow:` `moved to heap: x in hot path a\.Hot \[compiler escape analysis\]`
	sink = &x
	return helper(v) // want `make\(\[\]byte, v\) escapes to heap in hot path a\.Hot \[compiler escape analysis\]`
}

// helper allocates a variable-size buffer; the escape is attributed both at
// the inlined call site above and here in the callee.
func helper(v int) int {
	buf := make([]byte, v) // want `make\(\[\]byte, v\) escapes to heap in hot path a\.helper \(hot via a\.Hot\) \[compiler escape analysis\]`
	return len(buf)
}

// HotWaived allocates too, but the line waiver covers the compiler finding
// the same way it covers syntactic ones.
//
//alpha:hotpath
func HotWaived(v int) int {
	buf := make([]byte, v) //alpha:alloc-ok scratch buffer grows to the high-water mark once
	return len(buf)
}

// Cold escapes all over, but is not hot: the compiler diagnostics land
// outside every hot range and are discarded.
func Cold(v int) *int {
	x := v
	return &x
}

var (
	hook func() int
	kept any
)

// Closures and boxing are judged by the compiler alone: a closure or a box
// that escapes allocates, one that stays on the stack does not.
//
//alpha:hotpath
func HotClosures(v int) {
	hook = func() int { return v } // want `func literal escapes to heap in hot path a\.HotClosures \[compiler escape analysis\]`
	note := func() { _ = v }       // built and never invoked: no allocation
	_ = note
	keep(v)    // want `v escapes to heap in hot path a\.HotClosures \[compiler escape analysis\]`
	inspect(v) // boxed into an any that does not escape
}

func keep(x any) { kept = x }

//go:noinline
func inspect(x any) { _ = x }
