package poly

import (
	"math/rand"
	"testing"

	"zkflow/internal/field"
)

func randPoly(rng *rand.Rand, n int) Poly {
	p := make(Poly, n)
	for i := range p {
		p[i] = field.New(rng.Uint64())
	}
	return p
}

func TestEvalHorner(t *testing.T) {
	// p(x) = 3 + 2x + x^2, p(5) = 3 + 10 + 25 = 38
	p := Poly{field.New(3), field.New(2), field.New(1)}
	if got := p.Eval(field.New(5)); got != field.New(38) {
		t.Errorf("Eval = %v, want 38", got)
	}
}

func TestNTTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 64, 1024} {
		p := randPoly(rng, n)
		evals := make([]field.Elem, n)
		copy(evals, p)
		NTT(evals)
		INTT(evals)
		for i := range p {
			if evals[i] != p[i] {
				t.Fatalf("n=%d: round trip mismatch at %d", n, i)
			}
		}
	}
}

func TestNTTMatchesDirectEval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 16
	p := randPoly(rng, n)
	evals := append([]field.Elem(nil), p...)
	NTT(evals)
	w := field.RootOfUnity(4)
	x := field.One
	for i := 0; i < n; i++ {
		if evals[i] != p.Eval(x) {
			t.Fatalf("NTT eval mismatch at index %d", i)
		}
		x = field.Mul(x, w)
	}
}

func TestNTTPanicsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NTT(make([]field.Elem, 3))
}

func TestCosetEvalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randPoly(rng, 32)
	shift := field.Elem(field.Generator)
	evals := make([]field.Elem, 64)
	CosetEvalInto(evals, p, shift)
	q := CosetInterpolateInPlace(evals, shift)
	for i := range p {
		if q[i] != p[i] {
			t.Fatalf("coset round trip mismatch at %d", i)
		}
	}
	for i := len(p); i < len(q); i++ {
		if q[i] != 0 {
			t.Fatalf("coset interpolation produced spurious coefficient at %d", i)
		}
	}
}

func TestCosetEvalMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := randPoly(rng, 8)
	shift := field.New(3)
	evals := make([]field.Elem, 16)
	CosetEvalInto(evals, p, shift)
	w := field.RootOfUnity(4)
	x := shift
	for i := range evals {
		if evals[i] != p.Eval(x) {
			t.Fatalf("coset eval mismatch at %d", i)
		}
		x = field.Mul(x, w)
	}
}

func BenchmarkNTT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	p := randPoly(rng, 1024)
	buf := make([]field.Elem, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, p)
		NTT(buf)
	}
}

func BenchmarkNTT65536(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	p := randPoly(rng, 65536)
	buf := make([]field.Elem, 65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, p)
		NTT(buf)
	}
}
