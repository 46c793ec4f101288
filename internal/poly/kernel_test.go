package poly

import (
	"testing"

	"zkflow/internal/field"
)

func randElems(n int, seed uint64) []field.Elem {
	out := make([]field.Elem, n)
	x := seed*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = field.New(x)
	}
	return out
}

// TestNTTMatchesSerialReference is the differential gate for the
// table-driven kernel: on every size and direction it must agree bit
// for bit with the retained textbook loop.
func TestNTTMatchesSerialReference(t *testing.T) {
	for logN := 0; logN <= 12; logN++ {
		n := 1 << logN
		src := randElems(n, uint64(logN)+1)
		for _, inverse := range []bool{false, true} {
			got := append([]field.Elem(nil), src...)
			want := append([]field.Elem(nil), src...)
			ntt(got, inverse)
			nttSerialReference(want, inverse)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d inverse=%v: kernel diverges from reference at %d", n, inverse, i)
				}
			}
		}
	}
}

func TestPowerLadderValues(t *testing.T) {
	start, ratio := field.New(12345), field.New(98765)
	l := PowerLadder(start, ratio, 64)
	acc := start
	for i, v := range l {
		if v != acc {
			t.Fatalf("ladder[%d] = %d, want %d", i, v, acc)
		}
		acc = field.Mul(acc, ratio)
	}
	// The cache must hand back the same shared slice.
	l2 := PowerLadder(start, ratio, 64)
	if &l[0] != &l2[0] {
		t.Fatal("ladder not cached")
	}
}

func TestPowerLadderRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two ladder")
		}
	}()
	PowerLadder(field.One, field.New(3), 6)
}

// TestCosetEvalIntoZeroPadsTail checks that CosetEvalInto never reads
// its destination: the prover hands it pooled, dirty scratch.
func TestCosetEvalIntoZeroPadsTail(t *testing.T) {
	shift := field.Elem(field.Generator)
	p := Poly(randElems(5, 44))
	want := make([]field.Elem, 16)
	CosetEvalInto(want, p, shift)
	dst := make([]field.Elem, 16)
	for i := range dst {
		dst[i] = field.New(uint64(i) + 999) // dirty scratch
	}
	CosetEvalInto(dst, p, shift)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("CosetEvalInto with dirty scratch diverges at %d", i)
		}
	}
}
