// Cross-package callee of the hot root in package a.
package b

// Shared is reached from a.Verify's hot path.
func Shared(buf []byte) {
	sink = func() { _ = buf }
}

var sink func()
