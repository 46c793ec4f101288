//go:build !amd64 || purego

package hashk

// Without the amd64 kernel every hash is sha256.Sum256.
const haveKernel = false

func compress1(out *[32]byte, m *Msg, blocks int) { panic("hashk: no compression kernel") }

func compress2(outA, outB *[32]byte, a, b *Msg, blocks int) {
	panic("hashk: no compression kernel")
}
