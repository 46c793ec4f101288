package poly

import (
	"testing"

	"zkflow/internal/field"
)

// FuzzNTTRoundTrip drives the transform identities at fuzzer-chosen
// sizes, shifts, and contents: INTT(NTT(p)) == p, the coset pair
// CosetInterpolateInPlace(CosetEvalInto(p)) == p, and the table-driven kernel
// against the retained serial reference. Any divergence is a
// soundness bug (wrong polynomial arithmetic means wrong proofs), so
// all three run on every input.
func FuzzNTTRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint64(7))
	f.Add(uint64(999), uint8(0), uint64(1))
	f.Add(uint64(0xdeadbeef), uint8(10), uint64(field.Generator))
	f.Fuzz(func(t *testing.T, seed uint64, logN uint8, shiftRaw uint64) {
		n := 1 << (logN % 11) // sizes 1..1024
		shift := field.New(shiftRaw)
		if shift == 0 {
			shift = field.Elem(field.Generator)
		}
		src := randElems(n, seed)

		// NTT ∘ INTT identity.
		buf := append([]field.Elem(nil), src...)
		NTT(buf)
		INTT(buf)
		for i := range buf {
			if buf[i] != src[i] {
				t.Fatalf("NTT/INTT round trip diverges at %d (n=%d)", i, n)
			}
		}

		// Coset round trip: evaluate over shift*<w> at 4x rate, then
		// recover the coefficients.
		ev := make([]field.Elem, 4*n)
		CosetEvalInto(ev, Poly(src), shift)
		rec := CosetInterpolateInPlace(ev, shift)
		for i := range src {
			if rec[i] != src[i] {
				t.Fatalf("coset round trip diverges at %d (n=%d shift=%d)", i, n, shift)
			}
		}
		for i := n; i < len(rec); i++ {
			if rec[i] != 0 {
				t.Fatalf("coset round trip grew degree at %d (n=%d)", i, n)
			}
		}

		// Differential: table-driven kernel vs serial reference.
		got := append([]field.Elem(nil), src...)
		want := append([]field.Elem(nil), src...)
		ntt(got, false)
		nttSerialReference(want, false)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("kernel diverges from serial reference at %d (n=%d)", i, n)
			}
		}
	})
}
