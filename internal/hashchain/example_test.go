package hashchain_test

import (
	"fmt"

	"alpha/internal/hashchain"
	"alpha/internal/suite"
)

// Example walks the full lifecycle: the owner generates a chain, publishes
// the anchor, and discloses elements; the verifier checks each disclosure,
// including across a gap (lost disclosures).
func Example() {
	s := suite.SHA1()
	chain, err := hashchain.New(s, hashchain.TagS1, hashchain.TagS2, []byte("demo secret"), 8)
	if err != nil {
		panic(err)
	}
	walker, err := hashchain.NewWalker(s, hashchain.TagS1, hashchain.TagS2, chain.Anchor(), 0)
	if err != nil {
		panic(err)
	}

	// Normal operation: disclose, verify.
	elem, idx, _ := chain.Next()
	fmt.Println("disclosure 1 verifies:", walker.Verify(elem, idx) == nil)

	// Two disclosures get lost in the network...
	chain.Next()
	chain.Next()
	// ...but the fourth still verifies: the verifier hashes it forward
	// until it meets its last trusted element (re-authentication, §2.1).
	elem, idx, _ = chain.Next()
	fmt.Println("disclosure 4 verifies after gap:", walker.Verify(elem, idx) == nil)
	fmt.Println("walker position:", walker.Index())

	// Output:
	// disclosure 1 verifies: true
	// disclosure 4 verifies after gap: true
	// walker position: 4
}

// ExampleChain_NextPair shows the element pair protecting one ALPHA
// exchange: the odd element authenticates the S1, the even one keys the MAC
// and is disclosed in the S2.
func ExampleChain_NextPair() {
	s := suite.SHA1()
	chain, _ := hashchain.New(s, hashchain.TagS1, hashchain.TagS2, []byte("pair demo"), 4)
	pair, _ := chain.NextPair()
	fmt.Println("auth index odd: ", pair.AuthIdx%2 == 1)
	fmt.Println("key follows auth:", pair.KeyIdx == pair.AuthIdx+1)
	// The key element hashes to the auth element under the S2 tag.
	fmt.Println("linked:", hashchain.VerifyLink(s, hashchain.TagS1, hashchain.TagS2, pair.Auth, pair.Key, pair.KeyIdx))
	// Output:
	// auth index odd:  true
	// key follows auth: true
	// linked: true
}

// ExampleNewCheckpoint shows the memory-constrained owner: same disclosures,
// a fraction of the resident state.
func ExampleNewCheckpoint() {
	s := suite.SHA1()
	full, _ := hashchain.New(s, hashchain.TagS1, hashchain.TagS2, []byte("x"), 1024)
	cp, _ := hashchain.NewCheckpoint(s, hashchain.TagS1, hashchain.TagS2, []byte("x"), 1024, 64)
	fe, _, _ := full.Next()
	ce, _, _ := cp.Next()
	fmt.Println("identical disclosures:", string(fe) == string(ce))
	fmt.Println("resident digests:", cp.StoredElements())
	// Output:
	// identical disclosures: true
	// resident digests: 17
}
