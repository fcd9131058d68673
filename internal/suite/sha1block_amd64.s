#include "textflag.h"

// SHA-1 on the SHA extensions, after Intel's "New Instructions Supporting
// the Secure Hash Algorithm on Intel Architecture Processors" (2013).
//
// X0 holds A B C D (A in the top lane), X1 and X2 take turns as the E
// operand of SHA1RNDS4, X3-X6 hold the message schedule sixteen words at a
// time, X7 the byte-swap mask, X8 and X9 the state at the start of a block.

// ROUNDS4 runs four rounds with round function f: e absorbs the E
// rotation and the four schedule words w, and next keeps ABCD, whose A
// becomes the E of the four rounds after these.
#define ROUNDS4(e, next, w, f) \
	SHA1NEXTE w, e; \
	MOVO      X0, next; \
	SHA1RNDS4 $f, e, X0

// func blockSHANI(h *[5]uint32, p []byte)
// Requires: SHA, SSE4.1, SSSE3; len(p) a multiple of 64.
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ   h+0(FP), DI
	MOVQ   p_base+8(FP), SI
	MOVQ   p_len+16(FP), DX
	SHRQ   $6, DX
	JZ     done
	MOVOU  (DI), X0
	PSHUFD $0x1b, X0, X0
	PXOR   X1, X1
	PINSRD $3, 16(DI), X1
	MOVOU  bswap<>(SB), X7

loop:
	MOVO X0, X8
	MOVO X1, X9

	MOVOU  (SI), X3
	PSHUFB X7, X3
	MOVOU  16(SI), X4
	PSHUFB X7, X4
	MOVOU  32(SI), X5
	PSHUFB X7, X5
	MOVOU  48(SI), X6
	PSHUFB X7, X6

	// Rounds 0-3 add E itself, not a rotated A: there is no previous ABCD.
	PADDL     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0

	// After each group of rounds, its four schedule words extend the
	// schedule three ways: SHA1MSG1 starts the block one register back,
	// PXOR adds them to the block two back, and SHA1MSG2 finishes the
	// block one register on, which the next group consumes.
	ROUNDS4(X2, X1, X4, 0)
	SHA1MSG1 X4, X3
	ROUNDS4(X1, X2, X5, 0)
	SHA1MSG1 X5, X4; PXOR X5, X3
	ROUNDS4(X2, X1, X6, 0)
	SHA1MSG1 X6, X5; PXOR X6, X4; SHA1MSG2 X6, X3
	ROUNDS4(X1, X2, X3, 0)
	SHA1MSG1 X3, X6; PXOR X3, X5; SHA1MSG2 X3, X4
	ROUNDS4(X2, X1, X4, 1)
	SHA1MSG1 X4, X3; PXOR X4, X6; SHA1MSG2 X4, X5
	ROUNDS4(X1, X2, X5, 1)
	SHA1MSG1 X5, X4; PXOR X5, X3; SHA1MSG2 X5, X6
	ROUNDS4(X2, X1, X6, 1)
	SHA1MSG1 X6, X5; PXOR X6, X4; SHA1MSG2 X6, X3
	ROUNDS4(X1, X2, X3, 1)
	SHA1MSG1 X3, X6; PXOR X3, X5; SHA1MSG2 X3, X4
	ROUNDS4(X2, X1, X4, 1)
	SHA1MSG1 X4, X3; PXOR X4, X6; SHA1MSG2 X4, X5
	ROUNDS4(X1, X2, X5, 2)
	SHA1MSG1 X5, X4; PXOR X5, X3; SHA1MSG2 X5, X6
	ROUNDS4(X2, X1, X6, 2)
	SHA1MSG1 X6, X5; PXOR X6, X4; SHA1MSG2 X6, X3
	ROUNDS4(X1, X2, X3, 2)
	SHA1MSG1 X3, X6; PXOR X3, X5; SHA1MSG2 X3, X4
	ROUNDS4(X2, X1, X4, 2)
	SHA1MSG1 X4, X3; PXOR X4, X6; SHA1MSG2 X4, X5
	ROUNDS4(X1, X2, X5, 2)
	SHA1MSG1 X5, X4; PXOR X5, X3; SHA1MSG2 X5, X6
	ROUNDS4(X2, X1, X6, 3)
	SHA1MSG1 X6, X5; PXOR X6, X4; SHA1MSG2 X6, X3
	ROUNDS4(X1, X2, X3, 3)
	SHA1MSG1 X3, X6; PXOR X3, X5; SHA1MSG2 X3, X4
	ROUNDS4(X2, X1, X4, 3)
	PXOR X4, X6; SHA1MSG2 X4, X5
	ROUNDS4(X1, X2, X5, 3)
	SHA1MSG2 X5, X6
	ROUNDS4(X2, X1, X6, 3)

	// The new E is A of four rounds ago, rotated, plus the old E.
	SHA1NEXTE X9, X1
	PADDL     X8, X0

	ADDQ $64, SI
	DECQ DX
	JNZ  loop

	PSHUFD $0x1b, X0, X0
	MOVOU  X0, (DI)
	PEXTRD $3, X1, 16(DI)

done:
	RET

// bswap reverses the sixteen bytes of a block: big-endian words, first
// word in the top lane.
DATA bswap<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap<>+8(SB)/8, $0x0001020304050607
GLOBL bswap<>(SB), RODATA|NOPTR, $16

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET
