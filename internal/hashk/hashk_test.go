package hashk

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

type digest = [32]byte

// refNode is the test oracle for a node: crypto/sha256's chaining value
// after the blocks tag || l || r, read from its exported state encoding
// ("sha\x03", then h0..h7 big-endian), never finalized.
func refNode(t testing.TB, l, r digest) digest {
	t.Helper()
	var tag [64]byte
	tag[0] = NodePrefix
	copy(tag[1:], NodeTag)
	h := sha256.New()
	h.Write(tag[:])
	h.Write(l[:])
	h.Write(r[:])
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil || string(state[:4]) != "sha\x03" {
		t.Fatalf("crypto/sha256 state encoding %.8x…: %v", state, err)
	}
	return digest(state[4:36])
}

func refLeaf(data []byte) digest {
	h := sha256.New()
	h.Write([]byte{LeafPrefix})
	h.Write(data)
	var out digest
	h.Sum(out[:0])
	return out
}

func mkDigests(n int) []digest {
	out := make([]digest, n)
	for i := range out {
		out[i] = sha256.Sum256([]byte{byte(i), byte(i >> 8)})
	}
	return out
}

func TestNodeMatchesReference(t *testing.T) {
	d := mkDigests(4)
	kernelModes(t, func(mode string) {
		if got, want := Node(d[0], d[1]), refNode(t, d[0], d[1]); got != want {
			t.Fatalf("%s: Node = %x, want %x", mode, got, want)
		}
	})
}

// TestNodeKnownAnswer pins the node definition to vectors computed
// outside Go (a longhand FIPS 180-4 compression function): the node IV
// after the tag block, and node(l, r) for l = 00 01 … 1f, r = 20 … 3f
// and for two zero children.
func TestNodeKnownAnswer(t *testing.T) {
	wantIV := [8]uint32{0x60dda825, 0xe52c1e03, 0x2331cf6d, 0x73b13868, 0x7b788e7b, 0x76d6b52d, 0xfb594907, 0xc9a8ad87}
	if ivNode != wantIV {
		t.Fatalf("node IV = %08x, want %08x", ivNode, wantIV)
	}
	var l, r, zero digest
	for i := range l {
		l[i], r[i] = byte(i), byte(32+i)
	}
	kernelModes(t, func(mode string) {
		for _, c := range []struct {
			l, r digest
			want string
		}{
			{l, r, "f2ce464f1dd590b2e0be67216000fda9d916c4a2ad20895004084ce8d8656c1f"},
			{zero, zero, "08c70d6d0205ca7fc1053c919459e1c9e97a1aa58876ded4708c8e580501f69f"},
		} {
			if got := Node(c.l, c.r); hex.EncodeToString(got[:]) != c.want {
				t.Fatalf("%s: node(%x, %x) = %x, want %s", mode, c.l, c.r, got, c.want)
			}
		}
	})
}

func TestHashLevelMatchesNode(t *testing.T) {
	kernelModes(t, func(mode string) {
		for _, n := range []int{1, 2, 3, 17, 1024} {
			src := mkDigests(2 * n)
			dst := make([]digest, n)
			HashLevel(dst, src)
			for i := range dst {
				if want := refNode(t, src[2*i], src[2*i+1]); dst[i] != want {
					t.Fatalf("%s: n=%d: level node %d = %x, want %x", mode, n, i, dst[i], want)
				}
			}
		}
	})
}

// FuzzNodeMatchesReference: Node and both lanes of HashLevel hash a
// fuzzed sibling pair to the oracle's midstate, with the kernel on and
// off (off, both run the portable block function). The second
// HashLevel lane gets the pair swapped, so the lanes see different
// blocks.
func FuzzNodeMatchesReference(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte("short"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var lr [64]byte
		copy(lr[:], data)
		l, r := digest(lr[:32]), digest(lr[32:])
		want, swapped := refNode(t, l, r), refNode(t, r, l)
		kernelModes(t, func(mode string) {
			if got := Node(l, r); got != want {
				t.Fatalf("%s: Node(%x, %x) = %x, want %x", mode, l, r, got, want)
			}
			dst := make([]digest, 2)
			HashLevel(dst, []digest{l, r, r, l})
			if dst[0] != want || dst[1] != swapped {
				t.Fatalf("%s: HashLevel lanes = %x, %x, want %x, %x", mode, dst[0], dst[1], want, swapped)
			}
		})
	})
}

func TestHashLevelRejectsRaggedInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged HashLevel did not panic")
		}
	}()
	HashLevel(make([]digest, 2), make([]digest, 3))
}

func TestLeafVariantsMatchReference(t *testing.T) {
	b := bytes.Repeat([]byte{0xbb}, 80)
	if got, want := Leaf[digest](b), refLeaf(b); got != want {
		t.Fatalf("Leaf = %x, want %x", got, want)
	}
	// Empty payload.
	if got, want := Leaf[digest](nil), refLeaf(nil); got != want {
		t.Fatalf("Leaf(nil) = %x, want %x", got, want)
	}
}

// TestLeafSlowPathMatchesFastPath pins the boundaries between the
// leaf paths — the kernel's Msg and the 512-byte stack buffer either
// side of MaxMsg, the stack buffer and the streaming hasher either side
// of ScratchBytes — and oversized payloads, against the reference, with
// the kernel on and off.
func TestLeafSlowPathMatchesFastPath(t *testing.T) {
	kernelModes(t, func(mode string) {
		for _, n := range []int{MaxMsg - 2, MaxMsg - 1, MaxMsg, ScratchBytes - 2, ScratchBytes - 1, ScratchBytes, 4 * ScratchBytes} {
			data := bytes.Repeat([]byte{0x5e}, n)
			if got, want := Leaf[digest](data), refLeaf(data); got != want {
				t.Fatalf("%s: len %d: Leaf = %x, want %x", mode, n, got, want)
			}
		}
	})
}

// TestKernelZeroAllocs is the allocation-regression gate for the
// kernel itself: node hashing, whole-level hashing, and the leaf fast
// paths must not touch the allocator, with the kernel on and off.
func TestKernelZeroAllocs(t *testing.T) {
	d := mkDigests(256)
	dst := make([]digest, 128)
	row := make([]byte, 80)
	wide := make([]byte, ScratchBytes-1) // the widest payload of the stack buffer
	cases := []struct {
		name string
		fn   func()
	}{
		{"Node", func() { _ = Node(d[0], d[1]) }},
		{"HashLevel", func() { HashLevel(dst, d) }},
		{"Leaf", func() { _ = Leaf[digest](row) }},
		{"Leaf/wide", func() { _ = Leaf[digest](wide) }},
	}
	kernelModes(t, func(mode string) {
		for _, tc := range cases {
			if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
				t.Errorf("%s: %s allocates %v per run, want 0", mode, tc.name, allocs)
			}
		}
	})
}

// kernelModes runs f with the compression kernel off and, on a CPU
// that has it, on.
func kernelModes(t testing.TB, f func(mode string)) {
	defer func(was bool) { useKernel = was }(useKernel)
	useKernel = false
	f("fallback")
	if haveKernel {
		useKernel = true
		f("kernel")
	}
}

// TestSumMatchesStdlib is the kernel's differential gate: every message
// length from empty to two blocks past the kernel's MaxMsg (one block,
// two blocks, the sha256.Sum256 fallback), random, all-zero and
// all-0xff content, in a Msg whose bytes past the message are stale —
// one lane, and two lanes on equal and on different messages — must
// hash to sha256.Sum256, with the kernel on and off.
func TestSumMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kernelModes(t, func(mode string) {
		for n := 0; n <= 256; n++ {
			random := make([]byte, n)
			rng.Read(random)
			other := make([]byte, n)
			rng.Read(other)
			for _, c := range []struct {
				name string
				msg  []byte
			}{
				{"random", random},
				{"zero", make([]byte, n)},
				{"ff", bytes.Repeat([]byte{0xff}, n)},
			} {
				want := sha256.Sum256(c.msg)
				if got := Sum(c.msg); got != want {
					t.Fatalf("%s: Sum(%s, %d bytes) = %x, want %x", mode, c.name, n, got, want)
				}
				if n > MaxMsg {
					continue
				}
				a, b := staleMsg(c.msg), staleMsg(c.msg)
				if got := SumMsg(&a, n); got != want {
					t.Fatalf("%s: SumMsg(%s, %d bytes) = %x, want %x", mode, c.name, n, got, want)
				}
				a = staleMsg(c.msg)
				if da, db := SumMsg2(&a, &b, n); da != want || db != want {
					t.Fatalf("%s: SumMsg2(%s, %d bytes) on equal messages = %x, %x, want %x", mode, c.name, n, da, db, want)
				}
				a, b = staleMsg(c.msg), staleMsg(other)
				if da, db := SumMsg2(&a, &b, n); da != want || db != sha256.Sum256(other) {
					t.Fatalf("%s: SumMsg2(%s, %d bytes) on different messages = %x, %x", mode, c.name, n, da, db)
				}
			}
		}
	})
}

// staleMsg is msg in a Msg whose remaining bytes are not zero.
func staleMsg(msg []byte) Msg {
	var m Msg
	for i := range m {
		m[i] = byte(0xa5 + i)
	}
	copy(m[:], msg)
	return m
}

func TestSumMsgRejectsLongMessage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SumMsg of MaxMsg+1 bytes did not panic")
		}
	}()
	var m Msg
	SumMsg(&m, MaxMsg+1)
}

// FuzzSumMatchesStdlib: two messages cut to one length hash, in one
// lane and two, to sha256.Sum256, with the kernel on and off.
func FuzzSumMatchesStdlib(f *testing.F) {
	f.Add([]byte(""), []byte(""))
	f.Add(bytes.Repeat([]byte{1}, 55), bytes.Repeat([]byte{2}, 56))
	f.Add(bytes.Repeat([]byte{0xff}, MaxMsg), bytes.Repeat([]byte{0}, 200))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		kernelModes(t, func(mode string) {
			if got, want := Sum(a), sha256.Sum256(a); got != want {
				t.Fatalf("%s: Sum(%x) = %x, want %x", mode, a, got, want)
			}
			n := min(len(a), len(b), MaxMsg)
			ma, mb := staleMsg(a[:n]), staleMsg(b[:n])
			da, db := SumMsg2(&ma, &mb, n)
			if da != sha256.Sum256(a[:n]) || db != sha256.Sum256(b[:n]) {
				t.Fatalf("%s: SumMsg2(%x, %x) = %x, %x", mode, a[:n], b[:n], da, db)
			}
		})
	})
}

// BenchmarkCompress is the kernel's floor: ns per 64-byte block for one
// message at a time and for two interleaved, on two-block messages (a
// salted exec leaf is one).
func BenchmarkCompress(b *testing.B) {
	if !haveKernel {
		b.Skip("no SHA-NI compression kernel on this CPU or build")
	}
	var ma, mb Msg
	blocks := pad(&ma, 109)
	pad(&mb, 109)
	var da, db [32]byte
	b.Run("lanes=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compress1(&da, &ivSHA256, &ma[0], blocks)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
	})
	b.Run("lanes=2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compress2(&da, &db, &ivSHA256, &ma[0], &mb[0], blocks)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N*blocks), "ns/block")
	})
}

// BenchmarkHashLevel is ns per node of a whole level, one compression
// each, through the kernel and through the portable block function.
func BenchmarkHashLevel(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		src := mkDigests(2 * n)
		dst := make([]digest, n)
		kernelModes(b, func(mode string) {
			b.Run(fmt.Sprintf("%s/nodes=%d", mode, n), func(b *testing.B) {
				b.SetBytes(int64(64 * n))
				for i := 0; i < b.N; i++ {
					HashLevel(dst, src)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
			})
		})
	}
}
