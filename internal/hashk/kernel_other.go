//go:build !amd64 || purego

package hashk

// Without the amd64 kernel messages hash through sha256.Sum256 and
// nodes through the portable block function.
const haveKernel = false

func compress1(out *[32]byte, iv *[8]uint32, p *byte, blocks int) {
	panic("hashk: no compression kernel")
}

func compress2(outA, outB *[32]byte, iv *[8]uint32, a, b *byte, blocks int) {
	panic("hashk: no compression kernel")
}
