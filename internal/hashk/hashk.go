// Package hashk is the zero-allocation SHA-256 kernel under every
// Merkle commitment in the repo. Node hashing is about half of a zkVM
// seal and leaf hashing most of the rest (EXPERIMENTS.md E21), so the
// kernel's one job is to keep everything but the compression function
// out of that loop, and the compression units busy.
//
// An internal tree node is one compression: node(l, r) is the
// compression of the 64-byte block l || r from the node IV, SHA-256's
// chaining value after the tag block NodePrefix || NodeTag || zero fill
// — equivalently, the unpadded SHA-256 midstate of tag || l || r. A
// leaf is SHA-256(0x00 || payload): its first block starts with 0x00
// and the tag block with 0x01, so a leaf and a node share a chaining
// input only through a collision of the compression function.
//
// Every other message of the seal's fixed shapes — a salted zkVM leaf
// (at most 109 bytes), a SysHash of a CLog entry or a node (64) — is at
// most MaxMsg bytes, so it pads in place in a 128-byte stack buffer
// (Msg) to one or two SHA-256 blocks. On amd64 with the SHA extensions
// those blocks, and nodes, go straight to a private compression kernel
// (kernel_amd64.s, derived from the Go toolchain's own SHA-NI block
// function) that takes its starting chaining value as an argument:
// SumMsg compresses one message, SumMsg2 two of the same length with
// their rounds interleaved, which the zkVM's block commit feeds with
// equal-length leaves two at a time, and HashLevel feeds sibling pairs
// two at a time straight from the level below, with no copy and no
// padding. Sum is the short-message entry point for callers holding a
// byte slice.
//
// The kernel runs when CPUID reports SHA, SSSE3 and SSE4.1. On any
// other CPU, on other architectures and under the purego build tag,
// messages hash through sha256.Sum256 and nodes through a portable
// block function (block.go) that allocates nothing. Either way every
// message digest is bit-for-bit SHA-256 and every node the compression
// above: the golden receipt vectors and the determinism tests pin that
// on both paths, TestSumMatchesStdlib and FuzzSumMatchesStdlib compare
// the kernel with sha256.Sum256 directly, and TestNodeMatchesReference
// and FuzzNodeMatchesReference compare nodes with the midstate
// crypto/sha256 exports.
//
//   - Node/HashLevel hash internal tree nodes: zero allocations per
//     node at any tree size. HashLevel reduces a whole level (or a
//     block's slice of one) per call.
//   - Leaf hashes a domain-prefixed leaf payload: payloads that fit a
//     Msg after the prefix take the kernel path, payloads under
//     ScratchBytes go through a 512-byte stack buffer and
//     sha256.Sum256 (STARK rows of up to 63 columns), and only
//     oversized leaves fall back to a streaming hash.
//
// The functions are generic over ~[32]byte so merkle.Hash (and any
// other 32-byte digest type) flows through without copies or import
// cycles.
package hashk

import (
	"crypto/sha256"
	"encoding/binary"
)

// The domain separation of the merkle package's tree convention: a
// leaf hash is SHA-256(LeafPrefix || payload), an internal node the
// compression of left || right from the chaining value after the tag
// block NodePrefix || NodeTag || zero fill. Kept here so the kernel can
// hash whole levels without calling back into merkle.
const (
	LeafPrefix byte = 0x00
	NodePrefix byte = 0x01
	NodeTag         = "zkflow/merkle/node/v1"
)

// ScratchBytes is the stack scratch size of the leaf path for payloads
// too long for a Msg: leaf payloads up to this size (after the domain
// prefix) hash with zero allocations: STARK LDE rows (8*cols bytes) of
// up to 63 columns, for one.
const ScratchBytes = 512

// MaxMsg is the longest message a Msg holds together with its SHA-256
// padding (a 0x80 byte, zeros, the 64-bit bit length): two blocks.
const MaxMsg = 2*64 - 9

// Msg is the kernel's message buffer: a message of up to MaxMsg bytes
// at its start, room for its padding after.
type Msg [128]byte

// useKernel is haveKernel; tests turn it off to run the sha256.Sum256
// path on a host that has the kernel.
var useKernel = haveKernel

// Sum returns SHA-256(msg): through a Msg and the kernel for messages
// of up to MaxMsg bytes, sha256.Sum256 beyond.
func Sum(msg []byte) [32]byte {
	if len(msg) > MaxMsg {
		return sha256.Sum256(msg)
	}
	var m Msg
	copy(m[:], msg)
	return SumMsg(&m, len(msg))
}

// SumMsg returns SHA-256(m[:n]), n <= MaxMsg. It pads the message in
// place: the bytes of m after the first n are overwritten.
func SumMsg(m *Msg, n int) (out [32]byte) {
	sum1(&out, m, n, pad(m, n))
	return out
}

// SumMsg2 is SumMsg on two messages of the same length, hashed at once.
func SumMsg2(a, b *Msg, n int) (da, db [32]byte) {
	blocks := pad(a, n)
	pad(b, n)
	sum2(&da, &db, a, b, n, blocks)
	return da, db
}

// pad writes the SHA-256 padding of the message m[:n] after it and
// returns the padded length in 64-byte blocks. A Msg whose message
// length does not change need only be padded once.
func pad(m *Msg, n int) int {
	if uint(n) > MaxMsg {
		panic("hashk: message longer than MaxMsg")
	}
	end := 64
	if n > 64-9 {
		end = 128
	}
	m[n] = 0x80
	clear(m[n+1 : end-8])
	binary.BigEndian.PutUint64(m[end-8:end], uint64(n)<<3)
	return end / 64
}

// sum1 writes SHA-256(m[:n]) to out; m is padded to blocks blocks.
// This and sum2 are the one place that picks the kernel or
// sha256.Sum256 for a message, which ignores the padding.
func sum1(out *[32]byte, m *Msg, n, blocks int) {
	if !useKernel {
		*out = sha256.Sum256(m[:n])
		return
	}
	compress1(out, &ivSHA256, &m[0], blocks)
}

// sum2 is sum1 on two padded messages of the same length.
func sum2(outA, outB *[32]byte, a, b *Msg, n, blocks int) {
	if !useKernel {
		*outA, *outB = sha256.Sum256(a[:n]), sha256.Sum256(b[:n])
		return
	}
	compress2(outA, outB, &ivSHA256, &a[0], &b[0], blocks)
}

// Node hashes two child digests into their parent: one compression of
// left || right from the node IV. Zero allocations.
func Node[H ~[32]byte](left, right H) (out H) {
	var lr [64]byte
	copy(lr[:32], left[:])
	copy(lr[32:], right[:])
	if !useKernel {
		nodeBlock((*[32]byte)(out[:]), &lr)
		return out
	}
	compress1((*[32]byte)(out[:]), &ivNode, &lr[0], 1)
	return out
}

// HashLevel reduces one whole tree level: dst[i] = Node(src[2i],
// src[2i+1]), two nodes at a time. len(src) must be exactly 2*len(dst).
// A sibling pair is one 64-byte block where it lies in src, so the
// kernel reads it in place. Zero allocations regardless of level width,
// so a full tree reduction costs no allocator traffic at all. Callers
// fan chunks of a level out across workers by slicing dst and src
// consistently.
func HashLevel[H ~[32]byte](dst, src []H) {
	if len(src) != 2*len(dst) {
		panic("hashk: HashLevel src must be exactly twice dst")
	}
	if !useKernel {
		for i := range dst {
			dst[i] = Node(src[2*i], src[2*i+1])
		}
		return
	}
	i := 0
	for ; i+1 < len(dst); i += 2 {
		compress2((*[32]byte)(dst[i][:]), (*[32]byte)(dst[i+1][:]), &ivNode, &src[2*i][0], &src[2*i+2][0], 1)
	}
	if i < len(dst) {
		compress1((*[32]byte)(dst[i][:]), &ivNode, &src[2*i][0], 1)
	}
}

// Leaf hashes a leaf payload with the leaf domain prefix:
// SHA-256(0x00 || data). Zero allocations for payloads up to
// ScratchBytes-1 bytes; larger payloads stream through a heap hasher.
func Leaf[H ~[32]byte](data []byte) H {
	if len(data) < MaxMsg {
		var m Msg
		m[0] = LeafPrefix
		copy(m[1:], data)
		return H(SumMsg(&m, 1+len(data)))
	}
	if len(data) < ScratchBytes {
		var buf [ScratchBytes]byte
		buf[0] = LeafPrefix
		n := copy(buf[1:], data)
		return H(sha256.Sum256(buf[:1+n]))
	}
	return leafStream[H](data)
}

// leafStream is the slow path for oversized leaves.
func leafStream[H ~[32]byte](data []byte) H {
	d := sha256.New()
	d.Write([]byte{LeafPrefix})
	d.Write(data)
	var out H
	d.Sum(out[:0])
	return out
}
