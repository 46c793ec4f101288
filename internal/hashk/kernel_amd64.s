// Copyright 2024 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// The SHA-256 compression kernel of package hashk, derived from
// TEXT ·blockSHANI in the Go distribution's
// crypto/internal/fips140/sha256/sha256block_amd64.s (and its generator,
// _asm/sha256block_amd64_shani.go), after S. Gulley et al., "New
// Instructions Supporting the Secure Hash Algorithm on Intel®
// Architecture Processors", July 2013.
//
// Changes from blockSHANI: the state starts from a chaining-value
// argument (the SHA-256 IV for a message, the node IV for a tree node)
// and ends as the big-endian digest bytes, not in the argument; the
// round constants are packed 16 bytes apart; every instruction is an
// SSE encoding (SHA, SSSE3 and SSE4.1 are all the CPU needs); and
// compress2 runs a second message through the same quad-round macros on
// a second register set, interleaved quad by quad with the first.
//
// Register use. Lane A: state X1 (ABEF) and X2 (CDGH), message schedule
// X3-X6, temporary X7, data pointer SI. Lane B: state X9 and X10,
// schedule X11-X14, temporary X15, data pointer DI. X0 is the implicit
// message operand of SHA256RNDS2 in both lanes (register renaming
// removes the false dependency), X8 the byte-swap mask, AX the round
// constants, CX the blocks left.

//go:build amd64 && !purego

#include "textflag.h"

// Message words 4c..4c+3 of the block at p, byte-swapped into m.
#define LOAD(p, off, m) \
	MOVOU  off(p), m; \
	PSHUFB X8, m

// Rounds 4c..4c+3 with schedule words m; k is the byte offset 16c of
// their round constants.
#define RNDS(m, k, s0, s1) \
	MOVO        m, X0; \
	PADDD       k(AX), X0; \
	SHA256RNDS2 X0, s0, s1; \
	PSHUFD      $0x0e, X0, X0; \
	SHA256RNDS2 X0, s1, s0

// RNDS plus the schedule step that finishes the words of quad c+1 in t
// from m and the words a of quad c-1.
#define RNDSW(m, k, a, t, s0, s1, tmp) \
	MOVO        m, X0; \
	PADDD       k(AX), X0; \
	SHA256RNDS2 X0, s0, s1; \
	MOVO        m, tmp; \
	PALIGNR     $4, a, tmp; \
	PADDD       tmp, t; \
	SHA256MSG2  m, t; \
	PSHUFD      $0x0e, X0, X0; \
	SHA256RNDS2 X0, s1, s0

// Load the chaining value h0..h7 at iv into the kernel's state layout,
// s0 = ABEF and s1 = CDGH.
#define LOADIV(iv, s0, s1, tmp) \
	MOVOU   (iv), s0; \
	MOVOU   16(iv), s1; \
	PSHUFD  $0xb1, s0, s0; \
	PSHUFD  $0x1b, s1, s1; \
	MOVO    s0, tmp; \
	PALIGNR $8, s1, s0; \
	PBLENDW $0xf0, tmp, s1

// Reorder the state (ABEF, CDGH) back to (ABCD, EFGH) and store it as
// the big-endian digest at dst.
#define STORE(s0, s1, tmp, dst) \
	PSHUFD  $0x1b, s0, s0; \
	PSHUFD  $0xb1, s1, s1; \
	MOVO    s0, tmp; \
	PBLENDW $0xf0, s1, s0; \
	PALIGNR $8, tmp, s1; \
	PSHUFB  X8, s0; \
	PSHUFB  X8, s1; \
	MOVOU   s0, (dst); \
	MOVOU   s1, 16(dst)

// The 64 rounds of one block, one lane.
#define BLOCK_A \
	LOAD(SI, 0, X3);  RNDS(X3, 0, X1, X2); \
	LOAD(SI, 16, X4); RNDS(X4, 16, X1, X2); SHA256MSG1 X4, X3; \
	LOAD(SI, 32, X5); RNDS(X5, 32, X1, X2); SHA256MSG1 X5, X4; \
	LOAD(SI, 48, X6); RNDSW(X6, 48, X5, X3, X1, X2, X7); SHA256MSG1 X6, X5; \
	RNDSW(X3, 64, X6, X4, X1, X2, X7);  SHA256MSG1 X3, X6; \
	RNDSW(X4, 80, X3, X5, X1, X2, X7);  SHA256MSG1 X4, X3; \
	RNDSW(X5, 96, X4, X6, X1, X2, X7);  SHA256MSG1 X5, X4; \
	RNDSW(X6, 112, X5, X3, X1, X2, X7); SHA256MSG1 X6, X5; \
	RNDSW(X3, 128, X6, X4, X1, X2, X7); SHA256MSG1 X3, X6; \
	RNDSW(X4, 144, X3, X5, X1, X2, X7); SHA256MSG1 X4, X3; \
	RNDSW(X5, 160, X4, X6, X1, X2, X7); SHA256MSG1 X5, X4; \
	RNDSW(X6, 176, X5, X3, X1, X2, X7); SHA256MSG1 X6, X5; \
	RNDSW(X3, 192, X6, X4, X1, X2, X7); SHA256MSG1 X3, X6; \
	RNDSW(X4, 208, X3, X5, X1, X2, X7); \
	RNDSW(X5, 224, X4, X6, X1, X2, X7); \
	RNDS(X6, 240, X1, X2)

// The 64 rounds of one block in both lanes, quad by quad.
#define BLOCK_AB \
	LOAD(SI, 0, X3);  RNDS(X3, 0, X1, X2); \
	LOAD(DI, 0, X11); RNDS(X11, 0, X9, X10); \
	LOAD(SI, 16, X4);  RNDS(X4, 16, X1, X2);   SHA256MSG1 X4, X3; \
	LOAD(DI, 16, X12); RNDS(X12, 16, X9, X10); SHA256MSG1 X12, X11; \
	LOAD(SI, 32, X5);  RNDS(X5, 32, X1, X2);   SHA256MSG1 X5, X4; \
	LOAD(DI, 32, X13); RNDS(X13, 32, X9, X10); SHA256MSG1 X13, X12; \
	LOAD(SI, 48, X6);  RNDSW(X6, 48, X5, X3, X1, X2, X7);         SHA256MSG1 X6, X5; \
	LOAD(DI, 48, X14); RNDSW(X14, 48, X13, X11, X9, X10, X15);    SHA256MSG1 X14, X13; \
	RNDSW(X3, 64, X6, X4, X1, X2, X7);           SHA256MSG1 X3, X6; \
	RNDSW(X11, 64, X14, X12, X9, X10, X15);      SHA256MSG1 X11, X14; \
	RNDSW(X4, 80, X3, X5, X1, X2, X7);           SHA256MSG1 X4, X3; \
	RNDSW(X12, 80, X11, X13, X9, X10, X15);      SHA256MSG1 X12, X11; \
	RNDSW(X5, 96, X4, X6, X1, X2, X7);           SHA256MSG1 X5, X4; \
	RNDSW(X13, 96, X12, X14, X9, X10, X15);      SHA256MSG1 X13, X12; \
	RNDSW(X6, 112, X5, X3, X1, X2, X7);          SHA256MSG1 X6, X5; \
	RNDSW(X14, 112, X13, X11, X9, X10, X15);     SHA256MSG1 X14, X13; \
	RNDSW(X3, 128, X6, X4, X1, X2, X7);          SHA256MSG1 X3, X6; \
	RNDSW(X11, 128, X14, X12, X9, X10, X15);     SHA256MSG1 X11, X14; \
	RNDSW(X4, 144, X3, X5, X1, X2, X7);          SHA256MSG1 X4, X3; \
	RNDSW(X12, 144, X11, X13, X9, X10, X15);     SHA256MSG1 X12, X11; \
	RNDSW(X5, 160, X4, X6, X1, X2, X7);          SHA256MSG1 X5, X4; \
	RNDSW(X13, 160, X12, X14, X9, X10, X15);     SHA256MSG1 X13, X12; \
	RNDSW(X6, 176, X5, X3, X1, X2, X7);          SHA256MSG1 X6, X5; \
	RNDSW(X14, 176, X13, X11, X9, X10, X15);     SHA256MSG1 X14, X13; \
	RNDSW(X3, 192, X6, X4, X1, X2, X7);          SHA256MSG1 X3, X6; \
	RNDSW(X11, 192, X14, X12, X9, X10, X15);     SHA256MSG1 X11, X14; \
	RNDSW(X4, 208, X3, X5, X1, X2, X7); \
	RNDSW(X12, 208, X11, X13, X9, X10, X15); \
	RNDSW(X5, 224, X4, X6, X1, X2, X7); \
	RNDSW(X13, 224, X12, X14, X9, X10, X15); \
	RNDS(X6, 240, X1, X2); \
	RNDS(X14, 240, X9, X10)

// func compress1(out *[32]byte, iv *[8]uint32, p *byte, blocks int)
TEXT ·compress1(SB), NOSPLIT, $0-32
	MOVQ  iv+8(FP), DX
	LOADIV(DX, X1, X2, X7)
	MOVQ  p+16(FP), SI
	MOVQ  blocks+24(FP), CX
	LEAQ  k256<>(SB), AX
	MOVOU flipMask<>(SB), X8

loop:
	// save the entry state for the addition after the rounds (one lane
	// leaves X9 and X10 free)
	MOVO X1, X9
	MOVO X2, X10
	BLOCK_A
	PADDD X9, X1
	PADDD X10, X2
	ADDQ  $64, SI
	DECQ  CX
	JNZ   loop

	MOVQ out+0(FP), DX
	STORE(X1, X2, X7, DX)
	RET

// func compress2(outA, outB *[32]byte, iv *[8]uint32, a, b *byte, blocks int)
//
// Both lanes' entry states go on the frame: no register is left.
TEXT ·compress2(SB), NOSPLIT, $64-48
	MOVQ  iv+16(FP), DX
	LOADIV(DX, X1, X2, X7)
	MOVQ  a+24(FP), SI
	MOVQ  b+32(FP), DI
	MOVQ  blocks+40(FP), CX
	LEAQ  k256<>(SB), AX
	MOVOU flipMask<>(SB), X8
	MOVO  X1, X9
	MOVO  X2, X10

loop:
	MOVOU X1, 0(SP)
	MOVOU X2, 16(SP)
	MOVOU X9, 32(SP)
	MOVOU X10, 48(SP)
	BLOCK_AB
	MOVOU 0(SP), X0
	PADDD X0, X1
	MOVOU 16(SP), X0
	PADDD X0, X2
	MOVOU 32(SP), X0
	PADDD X0, X9
	MOVOU 48(SP), X0
	PADDD X0, X10
	ADDQ  $64, SI
	ADDQ  $64, DI
	DECQ  CX
	JNZ   loop

	MOVQ outA+0(FP), DX
	STORE(X1, X2, X7, DX)
	MOVQ outB+8(FP), DX
	STORE(X9, X10, X15, DX)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// Reverses the bytes of each dword: big-endian message words in,
// big-endian digest words out.
DATA flipMask<>+0(SB)/8, $0x0405060700010203
DATA flipMask<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flipMask<>(SB), RODATA|NOPTR, $16

// The round constants, four to a quad. PADDD reads them with an SSE
// memory operand, which must be 16-byte aligned: the linker aligns a
// 256-byte symbol to 32.
DATA k256<>+0(SB)/4, $0x428a2f98
DATA k256<>+4(SB)/4, $0x71374491
DATA k256<>+8(SB)/4, $0xb5c0fbcf
DATA k256<>+12(SB)/4, $0xe9b5dba5
DATA k256<>+16(SB)/4, $0x3956c25b
DATA k256<>+20(SB)/4, $0x59f111f1
DATA k256<>+24(SB)/4, $0x923f82a4
DATA k256<>+28(SB)/4, $0xab1c5ed5
DATA k256<>+32(SB)/4, $0xd807aa98
DATA k256<>+36(SB)/4, $0x12835b01
DATA k256<>+40(SB)/4, $0x243185be
DATA k256<>+44(SB)/4, $0x550c7dc3
DATA k256<>+48(SB)/4, $0x72be5d74
DATA k256<>+52(SB)/4, $0x80deb1fe
DATA k256<>+56(SB)/4, $0x9bdc06a7
DATA k256<>+60(SB)/4, $0xc19bf174
DATA k256<>+64(SB)/4, $0xe49b69c1
DATA k256<>+68(SB)/4, $0xefbe4786
DATA k256<>+72(SB)/4, $0x0fc19dc6
DATA k256<>+76(SB)/4, $0x240ca1cc
DATA k256<>+80(SB)/4, $0x2de92c6f
DATA k256<>+84(SB)/4, $0x4a7484aa
DATA k256<>+88(SB)/4, $0x5cb0a9dc
DATA k256<>+92(SB)/4, $0x76f988da
DATA k256<>+96(SB)/4, $0x983e5152
DATA k256<>+100(SB)/4, $0xa831c66d
DATA k256<>+104(SB)/4, $0xb00327c8
DATA k256<>+108(SB)/4, $0xbf597fc7
DATA k256<>+112(SB)/4, $0xc6e00bf3
DATA k256<>+116(SB)/4, $0xd5a79147
DATA k256<>+120(SB)/4, $0x06ca6351
DATA k256<>+124(SB)/4, $0x14292967
DATA k256<>+128(SB)/4, $0x27b70a85
DATA k256<>+132(SB)/4, $0x2e1b2138
DATA k256<>+136(SB)/4, $0x4d2c6dfc
DATA k256<>+140(SB)/4, $0x53380d13
DATA k256<>+144(SB)/4, $0x650a7354
DATA k256<>+148(SB)/4, $0x766a0abb
DATA k256<>+152(SB)/4, $0x81c2c92e
DATA k256<>+156(SB)/4, $0x92722c85
DATA k256<>+160(SB)/4, $0xa2bfe8a1
DATA k256<>+164(SB)/4, $0xa81a664b
DATA k256<>+168(SB)/4, $0xc24b8b70
DATA k256<>+172(SB)/4, $0xc76c51a3
DATA k256<>+176(SB)/4, $0xd192e819
DATA k256<>+180(SB)/4, $0xd6990624
DATA k256<>+184(SB)/4, $0xf40e3585
DATA k256<>+188(SB)/4, $0x106aa070
DATA k256<>+192(SB)/4, $0x19a4c116
DATA k256<>+196(SB)/4, $0x1e376c08
DATA k256<>+200(SB)/4, $0x2748774c
DATA k256<>+204(SB)/4, $0x34b0bcb5
DATA k256<>+208(SB)/4, $0x391c0cb3
DATA k256<>+212(SB)/4, $0x4ed8aa4a
DATA k256<>+216(SB)/4, $0x5b9cca4f
DATA k256<>+220(SB)/4, $0x682e6ff3
DATA k256<>+224(SB)/4, $0x748f82ee
DATA k256<>+228(SB)/4, $0x78a5636f
DATA k256<>+232(SB)/4, $0x84c87814
DATA k256<>+236(SB)/4, $0x8cc70208
DATA k256<>+240(SB)/4, $0x90befffa
DATA k256<>+244(SB)/4, $0xa4506ceb
DATA k256<>+248(SB)/4, $0xbef9a3f7
DATA k256<>+252(SB)/4, $0xc67178f2
GLOBL k256<>(SB), RODATA|NOPTR, $256
