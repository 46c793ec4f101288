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

// TestIntoVariantsMatchCopying pins the in-place/Into entry points to
// their copying counterparts — same values, caller-owned storage.
func TestIntoVariantsMatchCopying(t *testing.T) {
	shift := field.Elem(field.Generator)
	p := Poly(randElems(100, 42))
	const size = 256

	want := EvalDomain(p, size)
	dst := make([]field.Elem, size)
	for i := range dst {
		dst[i] = field.New(uint64(i) + 7) // dirty scratch must not leak through
	}
	EvalDomainInto(dst, p)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("EvalDomainInto diverges at %d", i)
		}
	}

	wantC := CosetEval(p, shift, size)
	for i := range dst {
		dst[i] = field.New(uint64(i) * 3)
	}
	CosetEvalInto(dst, p, shift)
	for i := range dst {
		if dst[i] != wantC[i] {
			t.Fatalf("CosetEvalInto diverges at %d", i)
		}
	}

	evals := randElems(size, 43)
	wantI := Interpolate(evals)
	gotI := InterpolateInPlace(append([]field.Elem(nil), evals...))
	for i := range wantI {
		if gotI[i] != wantI[i] {
			t.Fatalf("InterpolateInPlace diverges at %d", i)
		}
	}

	wantCI := CosetInterpolate(evals, shift)
	gotCI := CosetInterpolateInPlace(append([]field.Elem(nil), evals...), shift)
	for i := range wantCI {
		if gotCI[i] != wantCI[i] {
			t.Fatalf("CosetInterpolateInPlace diverges at %d", i)
		}
	}
	// The copying variant must not have mutated its input.
	ref := randElems(size, 43)
	for i := range evals {
		if evals[i] != ref[i] {
			t.Fatalf("CosetInterpolate mutated its input at %d", i)
		}
	}
}

func TestNTTIntoZeroPadsTail(t *testing.T) {
	p := Poly(randElems(5, 44))
	dst := make([]field.Elem, 16)
	for i := range dst {
		dst[i] = field.New(uint64(i) + 999) // dirty scratch
	}
	NTTInto(dst, p)
	want := EvalDomain(p, 16)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("NTTInto with dirty scratch diverges at %d", i)
		}
	}
}

func BenchmarkNTTInto65536(b *testing.B) {
	p := Poly(randElems(1<<14, 45))
	dst := make([]field.Elem, 1<<16)
	b.SetBytes(8 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NTTInto(dst, p)
	}
}
