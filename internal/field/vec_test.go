package field

import "testing"

// testVec builds a deterministic pseudo-random slice covering values
// near 0, near the modulus, and in between — lengths deliberately not
// multiples of 4 so the unrolled kernels' tail loops are exercised.
func testVec(n int, seed uint64) []Elem {
	out := make([]Elem, n)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch i % 5 {
		case 0:
			out[i] = Elem(x % Modulus)
		case 1:
			out[i] = Elem(Modulus - 1 - x%7)
		case 2:
			out[i] = Elem(x % 7)
		default:
			out[i] = Elem(x % Modulus)
		}
	}
	return out
}

func TestVecOpsMatchScalar(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 31, 100} {
		a := testVec(n, 1)
		b := testVec(n, 2)
		c := Elem(0xdeadbeef12345)

		got := make([]Elem, n)
		MulVec(got, a, b)
		for i := range got {
			if got[i] != Mul(a[i], b[i]) {
				t.Fatalf("MulVec n=%d i=%d", n, i)
			}
		}
		ScaleVec(got, a, c)
		for i := range got {
			if got[i] != Mul(c, a[i]) {
				t.Fatalf("ScaleVec n=%d i=%d", n, i)
			}
		}
		SubScalarVec(got, a, c)
		for i := range got {
			if got[i] != Sub(a[i], c) {
				t.Fatalf("SubScalarVec n=%d i=%d", n, i)
			}
		}
	}
}

func TestVecOpsAliasSafe(t *testing.T) {
	a := testVec(33, 3)
	b := testVec(33, 4)
	want := make([]Elem, len(a))
	MulVec(want, a, b)
	got := append([]Elem(nil), a...)
	MulVec(got, got, b) // dst aliases a
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("aliased MulVec diverges at %d", i)
		}
	}
	ScaleVec(got, got, 7)
	for i := range got {
		if got[i] != Mul(7, want[i]) {
			t.Fatalf("aliased ScaleVec diverges at %d", i)
		}
	}
}

func TestVecOpsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	MulVec(make([]Elem, 3), make([]Elem, 4), make([]Elem, 3))
}

func TestButterflyIdentity(t *testing.T) {
	u, v, w := Elem(12345), Elem(67890), Elem(0xabcdef)
	lo, hi := Butterfly(u, v, w)
	tv := Mul(w, v)
	if lo != Add(u, tv) || hi != Sub(u, tv) {
		t.Fatal("Butterfly disagrees with scalar formulation")
	}
	// Inverting: lo+hi = 2u, lo-hi = 2wv.
	if Add(lo, hi) != Mul(2, u) {
		t.Fatal("butterfly sum identity")
	}
	if Sub(lo, hi) != Mul(2, tv) {
		t.Fatal("butterfly difference identity")
	}
}

func TestButterfliesMatchScalar(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 64} {
		lo := testVec(n, 5)
		hi := testVec(n, 6)
		w := testVec(n, 7)
		wantLo := append([]Elem(nil), lo...)
		wantHi := append([]Elem(nil), hi...)
		for i := 0; i < n; i++ {
			wantLo[i], wantHi[i] = Butterfly(wantLo[i], wantHi[i], w[i])
		}
		Butterflies(lo, hi, w)
		for i := 0; i < n; i++ {
			if lo[i] != wantLo[i] || hi[i] != wantHi[i] {
				t.Fatalf("Butterflies n=%d diverges at %d", n, i)
			}
		}
	}
}

func BenchmarkMulVec4096(b *testing.B) {
	x := testVec(4096, 8)
	y := testVec(4096, 9)
	dst := make([]Elem, 4096)
	b.SetBytes(8 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulVec(dst, x, y)
	}
}

func BenchmarkButterflies4096(b *testing.B) {
	lo := testVec(4096, 10)
	hi := testVec(4096, 11)
	w := testVec(4096, 12)
	b.SetBytes(8 * 4096 * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Butterflies(lo, hi, w)
	}
}
