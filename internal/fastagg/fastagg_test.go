package fastagg

import (
	"testing"

	"zkflow/internal/field"
	"zkflow/internal/gperm"
	"zkflow/internal/stark"
)

func testInput() gperm.State {
	var s gperm.State
	for i := range s {
		s[i] = field.New(uint64(i + 1))
	}
	return s
}

func TestChainOutputMatchesPermute(t *testing.T) {
	// gperm.Rounds rounds starting at round 0 is exactly one Permute.
	in := testInput()
	got := ChainOutput(in, gperm.Rounds)
	want := in
	want.Permute()
	if got != want {
		t.Fatal("chain of one permutation disagrees with Permute")
	}
}

func TestProveVerifyRoundTrip(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		p, err := Prove(testInput(), n, stark.DefaultParams)
		if err != nil {
			t.Fatalf("n=%d prove: %v", n, err)
		}
		if err := Verify(p, stark.DefaultParams); err != nil {
			t.Fatalf("n=%d verify: %v", n, err)
		}
		if p.Stmt.Output != ChainOutput(testInput(), n-1) {
			t.Fatalf("n=%d output mismatch", n)
		}
	}
}

func TestVerifyRejectsWrongOutput(t *testing.T) {
	p, err := Prove(testInput(), 64, stark.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	p.Stmt.Output[0] = field.Add(p.Stmt.Output[0], field.One)
	if err := Verify(p, stark.DefaultParams); err == nil {
		t.Fatal("forged output accepted")
	}
}

func TestVerifyRejectsWrongInput(t *testing.T) {
	p, err := Prove(testInput(), 64, stark.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	p.Stmt.Input[3] = field.Add(p.Stmt.Input[3], field.One)
	if err := Verify(p, stark.DefaultParams); err == nil {
		t.Fatal("forged input accepted")
	}
}

func TestVerifyRejectsTamperedTraceRoot(t *testing.T) {
	p, err := Prove(testInput(), 64, stark.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	p.Stark.TraceRoot[0] ^= 1
	if err := Verify(p, stark.DefaultParams); err == nil {
		t.Fatal("tampered trace root accepted")
	}
}

func TestVerifyRejectsTamperedRowOpening(t *testing.T) {
	p, err := Prove(testInput(), 64, stark.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	p.Stark.Rows[0].Values[0] = field.Add(p.Stark.Rows[0].Values[0], field.One)
	if err := Verify(p, stark.DefaultParams); err == nil {
		t.Fatal("tampered row accepted")
	}
}

func TestVerifyRejectsLengthMismatch(t *testing.T) {
	p, err := Prove(testInput(), 64, stark.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	p.Stmt.N = 128
	if err := Verify(p, stark.DefaultParams); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestProveRejectsBadLength(t *testing.T) {
	if _, err := Prove(testInput(), 63, stark.DefaultParams); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, err := Prove(testInput(), 1, stark.DefaultParams); err == nil {
		t.Fatal("length 1 accepted")
	}
}

func TestProofIsSuccinct(t *testing.T) {
	p, err := Prove(testInput(), 512, stark.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	// The trace is 512 rows * 24 cols * 8 B = 96 KiB before blowup;
	// the proof must not embed the trace.
	traceBytes := 512 * 24 * 8
	if p.Size() > 8*traceBytes {
		t.Fatalf("proof %d bytes for a %d byte trace", p.Size(), traceBytes)
	}
	t.Logf("proof size for n=512: %d bytes", p.Size())
}

func BenchmarkProveChain1024Rounds(b *testing.B) {
	in := testInput()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Prove(in, 1024, stark.DefaultParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyChain1024Rounds(b *testing.B) {
	p, err := Prove(testInput(), 1024, stark.DefaultParams)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(p, stark.DefaultParams); err != nil {
			b.Fatal(err)
		}
	}
}
