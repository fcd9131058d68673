// Fixture for the hotpathalloc analyzer: //alpha:hotpath roots and their
// static callees may not allocate.
package a

import (
	"fmt"

	"alpha/b"
)

// Verify is the hot root.
//
//alpha:hotpath
func Verify(buf []byte) int {
	fmt.Println("verifying") // want `fmt\.Println in hot path`

	handler := func() {} // closures are the escape layer's to judge
	handler()

	seen := map[string]bool{} // want `map literal in hot path`
	_ = seen
	idx := make(map[int]int) // want `make\(map\) in hot path`
	_ = idx

	var acc []byte
	acc = append(acc, buf...) // want `append to un-presized slice acc in hot path`

	fresh := append([]byte{}, buf...) // want `append to fresh slice in hot path`
	_ = fresh

	helper(buf)   // same-package callee is traversed
	b.Shared(buf) // cross-package callee is traversed

	cached(buf) //alpha:alloc-ok cache miss is amortized; traversal stops here
	return len(buf) + len(acc)
}

// helper is hot because Verify calls it.
func helper(buf []byte) {
	m := make(map[int]int) // want `make\(map\) in hot path \(hot via a\.Verify\)`
	_ = m
}

// cached would violate, but its only hot call site is waived, so it is
// never visited.
func cached(buf []byte) {
	m := make(map[int]int)
	_ = m
}

// cold is not annotated and not reachable from a hot root: allocations are
// fine here.
func cold() {
	out := []byte{}
	out = append(out, 1)
	fmt.Println(out, map[int]int{})
}

// presized shows the compliant idioms.
//
//alpha:hotpath
func presized(buf []byte) []byte {
	out := make([]byte, 0, len(buf))
	out = append(out, buf...)
	func() { out = append(out, 0) }() // IIFE does not escape
	return out
}
