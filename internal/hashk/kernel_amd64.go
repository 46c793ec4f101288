//go:build amd64 && !purego

package hashk

// compress1 hashes the padded message m of blocks 64-byte blocks (1 or
// 2) from the SHA-256 IV and writes the digest to out.
//
//go:noescape
func compress1(out *[32]byte, m *Msg, blocks int)

// compress2 is compress1 on two messages of the same block count at
// once, their rounds interleaved.
//
//go:noescape
func compress2(outA, outB *[32]byte, a, b *Msg, blocks int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// haveKernel reports the kernel's three CPU features: SHA (CPUID leaf
// 7, EBX bit 29), SSSE3 (leaf 1, ECX bit 9) and SSE4.1 (leaf 1, ECX
// bit 19). The kernel is SSE-encoded only, so no OS support for wider
// registers (XGETBV) is needed.
var haveKernel = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<29) != 0 && ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0
}()
