package fri

import (
	"math/rand"
	"testing"

	"zkflow/internal/field"
	"zkflow/internal/poly"
	"zkflow/internal/transcript"
)

var testShift = field.Elem(field.Generator)

func randomPoly(seed int64, degreeBound int) poly.Poly {
	rng := rand.New(rand.NewSource(seed))
	p := make(poly.Poly, degreeBound)
	for i := range p {
		p[i] = field.New(rng.Uint64())
	}
	return p
}

// cosetEval returns p's evaluations over the coset shift * <w> of the
// given size in a fresh slice.
func cosetEval(p poly.Poly, shift field.Elem, size int) []field.Elem {
	out := make([]field.Elem, size)
	poly.CosetEvalInto(out, p, shift)
	return out
}

func proveRoundTrip(t *testing.T, seed int64, domain, degreeBound int, params Params) (*Proof, error) {
	t.Helper()
	p := randomPoly(seed, degreeBound)
	evals := cosetEval(p, testShift, domain)
	tr := transcript.New("fri-test")
	proof, err := Prove(evals, degreeBound, testShift, tr, params)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	vtr := transcript.New("fri-test")
	return proof, Verify(proof, domain, degreeBound, testShift, vtr, params, nil)
}

func TestLowDegreeAccepted(t *testing.T) {
	for _, tc := range []struct{ domain, bound int }{
		{64, 8}, {256, 32}, {1024, 128}, {4096, 1024},
	} {
		if _, err := proveRoundTrip(t, int64(tc.domain), tc.domain, tc.bound, DefaultParams); err != nil {
			t.Errorf("domain=%d bound=%d: %v", tc.domain, tc.bound, err)
		}
	}
}

func TestSmallDomainNoFolding(t *testing.T) {
	// degreeBound <= FinalDegree: the polynomial is sent directly.
	if _, err := proveRoundTrip(t, 1, 64, 4, DefaultParams); err != nil {
		t.Fatal(err)
	}
}

func TestHighDegreeRejected(t *testing.T) {
	// Evaluations of a degree-(bound*4) polynomial claimed as bound.
	domain, bound := 512, 16
	p := randomPoly(2, bound*4)
	evals := cosetEval(p, testShift, domain)
	tr := transcript.New("fri-test")
	proof, err := Prove(evals, bound, testShift, tr, DefaultParams)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	vtr := transcript.New("fri-test")
	if err := Verify(proof, domain, bound, testShift, vtr, DefaultParams, nil); err == nil {
		t.Fatal("high-degree vector accepted")
	}
}

func TestTamperedFinalRejected(t *testing.T) {
	p := randomPoly(3, 32)
	evals := cosetEval(p, testShift, 256)
	tr := transcript.New("fri-test")
	proof, err := Prove(evals, 32, testShift, tr, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	proof.Final[0] = field.Add(proof.Final[0], field.One)
	vtr := transcript.New("fri-test")
	if err := Verify(proof, 256, 32, testShift, vtr, DefaultParams, nil); err == nil {
		t.Fatal("tampered final polynomial accepted")
	}
}

func TestTamperedOpeningRejected(t *testing.T) {
	p := randomPoly(4, 32)
	evals := cosetEval(p, testShift, 256)
	tr := transcript.New("fri-test")
	proof, err := Prove(evals, 32, testShift, tr, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	proof.Queries[0].Openings[0].Lo = field.Add(proof.Queries[0].Openings[0].Lo, field.One)
	vtr := transcript.New("fri-test")
	if err := Verify(proof, 256, 32, testShift, vtr, DefaultParams, nil); err == nil {
		t.Fatal("tampered opening accepted")
	}
}

func TestWrongRootRejected(t *testing.T) {
	p := randomPoly(5, 32)
	evals := cosetEval(p, testShift, 256)
	tr := transcript.New("fri-test")
	proof, err := Prove(evals, 32, testShift, tr, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	proof.Roots[0][0] ^= 1
	vtr := transcript.New("fri-test")
	if err := Verify(proof, 256, 32, testShift, vtr, DefaultParams, nil); err == nil {
		t.Fatal("tampered root accepted")
	}
}

func TestLayer0BindingEnforced(t *testing.T) {
	p := randomPoly(6, 32)
	domain := 256
	evals := cosetEval(p, testShift, domain)
	tr := transcript.New("fri-test")
	proof, err := Prove(evals, 32, testShift, tr, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	// Correct binding accepted.
	vtr := transcript.New("fri-test")
	ok := func(pos int) (field.Elem, error) { return evals[pos], nil }
	if err := Verify(proof, domain, 32, testShift, vtr, DefaultParams, ok); err != nil {
		t.Fatalf("correct binding rejected: %v", err)
	}
	// Wrong binding rejected.
	vtr2 := transcript.New("fri-test")
	bad := func(pos int) (field.Elem, error) { return field.Add(evals[pos], field.One), nil }
	if err := Verify(proof, domain, 32, testShift, vtr2, DefaultParams, bad); err == nil {
		t.Fatal("wrong layer-0 binding accepted")
	}
}

func TestStatementBindingViaTranscript(t *testing.T) {
	// A proof generated under one transcript prefix must not verify
	// under another (Fiat-Shamir statement binding).
	p := randomPoly(7, 32)
	evals := cosetEval(p, testShift, 256)
	tr := transcript.New("fri-test")
	tr.Append("statement", []byte("A"))
	proof, err := Prove(evals, 32, testShift, tr, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	vtr := transcript.New("fri-test")
	vtr.Append("statement", []byte("B"))
	if err := Verify(proof, 256, 32, testShift, vtr, DefaultParams, nil); err == nil {
		t.Fatal("proof transplanted across statements")
	}
}

func TestProofSizeLogarithmic(t *testing.T) {
	_, err := proveRoundTrip(t, 8, 4096, 512, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	p := randomPoly(8, 512)
	evals := cosetEval(p, testShift, 4096)
	tr := transcript.New("fri-test")
	proof, _ := Prove(evals, 512, testShift, tr, DefaultParams)
	// A 4096-point vector is 32 KiB; the proof must be far below the
	// data size multiplied by queries (i.e., actually succinct per
	// layer) — sanity bound: < 512 KiB.
	if proof.Size() > 512*1024 {
		t.Fatalf("proof size %d", proof.Size())
	}
}

func TestProveRejectsBadInputs(t *testing.T) {
	tr := transcript.New("fri-test")
	if _, err := Prove(make([]field.Elem, 100), 8, testShift, tr, DefaultParams); err == nil {
		t.Fatal("non-power-of-two domain accepted")
	}
	if _, err := Prove(make([]field.Elem, 64), 64, testShift, tr, DefaultParams); err == nil {
		t.Fatal("rate-1 bound accepted")
	}
	if _, err := Prove(make([]field.Elem, 64), 3, testShift, tr, DefaultParams); err == nil {
		t.Fatal("non-power-of-two bound accepted")
	}
}

func BenchmarkProve4096(b *testing.B) {
	p := randomPoly(9, 512)
	evals := cosetEval(p, testShift, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := transcript.New("fri-bench")
		if _, err := Prove(evals, 512, testShift, tr, DefaultParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify4096(b *testing.B) {
	p := randomPoly(10, 512)
	evals := cosetEval(p, testShift, 4096)
	tr := transcript.New("fri-bench")
	proof, err := Prove(evals, 512, testShift, tr, DefaultParams)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vtr := transcript.New("fri-bench")
		if err := Verify(proof, 4096, 512, testShift, vtr, DefaultParams, nil); err != nil {
			b.Fatal(err)
		}
	}
}
