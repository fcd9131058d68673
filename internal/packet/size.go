// Encoded sizes by shape, for callers that reserve room for packets before
// they have their bytes: an exchange sizes its slab once, from the batch it
// signs or the S1 it buffered, instead of growing it packet by packet. Each
// function is the length AppendEncode produces for a body of that shape
// (TestEncodedLenMatchesEncode pins them to the encoders in bodies.go); h is
// the suite's digest size.

package packet

// S1Len is the size of an S1 carrying digests pre-signatures: the MACs of
// modes base and C or the roots of mode CM. Mode M carries one root and
// ignores digests.
func S1Len(mode Mode, h, digests int) int {
	n := HeaderSize + 1 + 4 + h + 4
	switch mode {
	case ModeM:
		return n + 4 + h
	case ModeCM:
		return n + 4 + 2 + digests*h
	}
	return n + 2 + digests*h
}

// A1Len is the size of an A1 with a pre-ack/pre-nack pair, an AMT root, or
// neither.
func A1Len(h int, prePair, amt bool) int {
	n := HeaderSize + 1 + 4 + h + 4
	if prePair {
		n += 2 * h
	}
	if amt {
		n += h + 4
	}
	return n
}

// S2Len is the size of an S2 carrying payload bytes and, in modes M and
// CM, a proof of proof digests.
func S2Len(mode Mode, h, proof, payload int) int {
	n := HeaderSize + 1 + 4 + h + 4 + 4 + payload
	if mode == ModeM || mode == ModeCM {
		n += 4 + 1 + proof*h
	}
	return n
}

// A2Len is the size of an A2 opening a flat pre-(n)ack (modes base and C)
// or, in mode M, an AMT leaf with a proof of proof digests.
func A2Len(mode Mode, h, proof int) int {
	n := HeaderSize + 1 + 4 + h + 4 + 1 + h
	if mode == ModeM {
		n += 4 + 1 + proof*h + h
	}
	return n
}
