//go:build amd64 && !purego

package hashk

// compress1 runs the compression function from the chaining value iv
// over the blocks 64-byte blocks (1 or 2) at p and writes the result to
// out as big-endian bytes.
//
//go:noescape
func compress1(out *[32]byte, iv *[8]uint32, p *byte, blocks int)

// compress2 is compress1 on two inputs of the same block count from one
// chaining value at once, their rounds interleaved.
//
//go:noescape
func compress2(outA, outB *[32]byte, iv *[8]uint32, a, b *byte, blocks int)

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
