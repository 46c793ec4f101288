package poly

import (
	"testing"

	"zkflow/internal/field"
)

// TestKernelSteadyStateZeroAllocs is the allocation-regression gate
// for the transform kernel: with warm twiddle/ladder caches and
// caller-owned buffers, NTT, INTT, CosetEvalInto and
// CosetInterpolateInPlace must not allocate at all. Before this kernel
// every coset evaluation and interpolation allocated a fresh
// domain-size slice and recomputed every root.
func TestKernelSteadyStateZeroAllocs(t *testing.T) {
	const n = 1 << 12
	shift := field.Elem(field.Generator)
	p := Poly(randElems(n/4, 77))
	buf := make([]field.Elem, n)

	// Warm every cache the measured calls touch.
	CosetEvalInto(buf, p, shift)
	CosetInterpolateInPlace(buf, shift)

	if a := testing.AllocsPerRun(10, func() { CosetEvalInto(buf, p, shift) }); a > 0 {
		t.Fatalf("CosetEvalInto allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { NTT(buf) }); a > 0 {
		t.Fatalf("NTT allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { INTT(buf) }); a > 0 {
		t.Fatalf("INTT allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() {
		CosetInterpolateInPlace(buf, shift)
	}); a > 0 {
		t.Fatalf("CosetInterpolateInPlace allocates %v per run, want 0", a)
	}
}
