package stark

import (
	"math"
	"testing"

	"zkflow/internal/air"
	"zkflow/internal/field"
	"zkflow/internal/fri"
	"zkflow/internal/transcript"
)

// fibAIR proves a Fibonacci-style recurrence: columns (a, b) with
// next.a = b, next.b = a + b; boundaries pin the start and the final b.
type fibAIR struct {
	start [2]field.Elem
	final field.Elem
}

func (f *fibAIR) NumColumns() int    { return 2 }
func (f *fibAIR) NumLocal() int      { return 0 }
func (f *fibAIR) NumTransition() int { return 2 }
func (f *fibAIR) MaxDegree() int     { return 2 } // linear, padded for layout headroom

func (f *fibAIR) EvalLocal(_ field.Elem, _ int, _, _ []field.Elem) {}

func (f *fibAIR) EvalTransition(_ field.Elem, _ int, curr, next, out []field.Elem) {
	out[0] = field.Sub(next[0], curr[1])
	out[1] = field.Sub(next[1], field.Add(curr[0], curr[1]))
}

func (f *fibAIR) Boundaries(n int) []air.Boundary {
	return []air.Boundary{
		{Row: 0, Col: 0, Value: f.start[0]},
		{Row: 0, Col: 1, Value: f.start[1]},
		{Row: n - 1, Col: 1, Value: f.final},
	}
}

func fibTrace(n int) ([][]field.Elem, field.Elem) {
	trace := make([][]field.Elem, n)
	a, b := field.One, field.One
	for i := 0; i < n; i++ {
		trace[i] = []field.Elem{a, b}
		a, b = b, field.Add(a, b)
	}
	return trace, trace[n-1][1]
}

func fibProof(t *testing.T, n int) (*fibAIR, *Proof) {
	t.Helper()
	trace, final := fibTrace(n)
	a := &fibAIR{start: [2]field.Elem{field.One, field.One}, final: final}
	tr := transcript.New("fib-test")
	proof, err := Prove(a, trace, tr, DefaultParams)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	return a, proof
}

func TestFibonacciRoundTrip(t *testing.T) {
	for _, n := range []int{8, 64, 512} {
		a, proof := fibProof(t, n)
		if err := Verify(a, proof, transcript.New("fib-test"), DefaultParams); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestWrongFinalValueRejected(t *testing.T) {
	trace, final := fibTrace(64)
	a := &fibAIR{start: [2]field.Elem{field.One, field.One}, final: field.Add(final, field.One)}
	tr := transcript.New("fib-test")
	proof, err := Prove(a, trace, tr, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(a, proof, transcript.New("fib-test"), DefaultParams); err == nil {
		t.Fatal("wrong boundary accepted")
	}
}

func TestBrokenRecurrenceRejected(t *testing.T) {
	trace, final := fibTrace(64)
	trace[30][1] = field.Add(trace[30][1], field.One) // break one step
	a := &fibAIR{start: [2]field.Elem{field.One, field.One}, final: final}
	tr := transcript.New("fib-test")
	proof, err := Prove(a, trace, tr, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(a, proof, transcript.New("fib-test"), DefaultParams); err == nil {
		t.Fatal("broken recurrence accepted")
	}
}

func TestStatementTranscriptBinding(t *testing.T) {
	a, proof := fibProof(t, 64)
	other := transcript.New("fib-test")
	other.Append("extra", []byte("divergent statement"))
	if err := Verify(a, proof, other, DefaultParams); err == nil {
		t.Fatal("proof verified under a different statement transcript")
	}
}

func TestProveRejectsBadTrace(t *testing.T) {
	a := &fibAIR{}
	tr := transcript.New("fib-test")
	if _, err := Prove(a, make([][]field.Elem, 7), tr, DefaultParams); err == nil {
		t.Fatal("non-power-of-two trace accepted")
	}
	ragged := [][]field.Elem{{1, 2}, {1}}
	if _, err := Prove(a, ragged, tr, DefaultParams); err == nil {
		t.Fatal("ragged trace accepted")
	}
}

func TestRowOpeningsDeduplicated(t *testing.T) {
	_, proof := fibProof(t, 256)
	seen := map[int]bool{}
	for _, r := range proof.Rows {
		if seen[r.Pos] {
			t.Fatalf("duplicate opening at %d", r.Pos)
		}
		seen[r.Pos] = true
	}
}

func TestProofSizeSublinear(t *testing.T) {
	_, small := fibProof(t, 64)
	_, large := fibProof(t, 1024)
	// 16x more rows must not cost anywhere near 16x proof size.
	if large.Size() > 6*small.Size() {
		t.Fatalf("sizes %d -> %d", small.Size(), large.Size())
	}
}

// TestSoundnessE6 pins the figure E6's instance proves under: a
// 2048-row chain at constraint degree 3 lays out a 32768-point domain
// at rate 1/4, so 32 queries give -log2((5/8)^32 + 2^15/p) bits.
func TestSoundnessE6(t *testing.T) {
	got := Soundness(DefaultParams, 2048, 3)
	if want := 21.6983; math.Abs(got-want) > 1e-4 {
		t.Fatalf("Soundness = %.6f bits, want %.4f", got, want)
	}
	// The field term caps the figure at -log2(2^15/p) ≈ 49 bits
	// however many queries run.
	many := Params{FriParams: fri.Params{Queries: 1000, FinalDegree: 8}}
	if capped := Soundness(many, 2048, 3); math.Abs(capped-49) > 1e-3 {
		t.Fatalf("1000 queries give %.4f bits, want the 49-bit field cap", capped)
	}
}
