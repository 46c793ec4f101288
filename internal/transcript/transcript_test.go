package transcript

import (
	"testing"

	"zkflow/internal/field"
)

func TestDeterminism(t *testing.T) {
	a, b := New("test"), New("test")
	a.Append("m", []byte("hello"))
	b.Append("m", []byte("hello"))
	if a.ChallengeElem("c") != b.ChallengeElem("c") {
		t.Fatal("same transcript, different challenges")
	}
}

func TestLabelSeparation(t *testing.T) {
	a, b := New("proto-a"), New("proto-b")
	if a.ChallengeElem("c") == b.ChallengeElem("c") {
		t.Fatal("different protocol labels, same challenges")
	}
}

func TestAbsorbChangesChallenges(t *testing.T) {
	a, b := New("t"), New("t")
	a.Append("m", []byte("x"))
	b.Append("m", []byte("y"))
	if a.ChallengeElem("c") == b.ChallengeElem("c") {
		t.Fatal("absorbed data did not affect challenge")
	}
}

func TestMessageBoundaryBinding(t *testing.T) {
	// ("ab","c") must differ from ("a","bc") — length prefixes matter.
	a, b := New("t"), New("t")
	a.Append("m", []byte("ab"))
	a.Append("m", []byte("c"))
	b.Append("m", []byte("a"))
	b.Append("m", []byte("bc"))
	if a.ChallengeElem("c") == b.ChallengeElem("c") {
		t.Fatal("message boundaries not bound")
	}
}

func TestSuccessiveChallengesDiffer(t *testing.T) {
	a := New("t")
	c1 := a.ChallengeElem("c")
	c2 := a.ChallengeElem("c")
	if c1 == c2 {
		t.Fatal("successive challenges identical")
	}
}

func TestChallengeElemCanonical(t *testing.T) {
	a := New("t")
	for i := 0; i < 1000; i++ {
		e := a.ChallengeElem("e")
		if uint64(e) >= field.Modulus {
			t.Fatal("non-canonical element")
		}
	}
}

func TestChallengeElemsOrderMatters(t *testing.T) {
	a, b := New("t"), New("t")
	ea := a.ChallengeElems("e", 3)
	eb := b.ChallengeElems("e", 3)
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("determinism broken")
		}
	}
	if ea[0] == ea[1] && ea[1] == ea[2] {
		t.Fatal("challenges suspiciously constant")
	}
}

func TestChallengeIndicesInBounds(t *testing.T) {
	a := New("t")
	for _, bound := range []int{1, 2, 3, 7, 100, 1 << 20} {
		idxs := a.ChallengeIndices("q", 50, bound)
		if len(idxs) != 50 {
			t.Fatalf("bound=%d: got %d indices", bound, len(idxs))
		}
		for _, ix := range idxs {
			if ix < 0 || ix >= bound {
				t.Fatalf("bound=%d: index %d out of range", bound, ix)
			}
		}
	}
}

func TestChallengeIndicesPanicOnZeroBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("t").ChallengeIndices("q", 1, 0)
}

func TestClone(t *testing.T) {
	a := New("t")
	a.Append("m", []byte("base"))
	b := a.Clone()
	a.Append("m", []byte("divergent"))
	ca := a.ChallengeElem("c")
	cb := b.ChallengeElem("c")
	if ca == cb {
		t.Fatal("clone tracked the original after divergence")
	}
}

func TestAppendUint64(t *testing.T) {
	a, b := New("t"), New("t")
	a.AppendUint64("n", 1)
	b.AppendUint64("n", 2)
	if a.ChallengeElem("c") == b.ChallengeElem("c") {
		t.Fatal("uint64 value not bound")
	}
}

func TestIndicesCoverRange(t *testing.T) {
	// Sanity: with enough samples every residue class mod small bound
	// should appear (catches off-by-one masking bugs).
	a := New("t")
	seen := make(map[int]bool)
	for _, ix := range a.ChallengeIndices("q", 200, 8) {
		seen[ix] = true
	}
	if len(seen) != 8 {
		t.Fatalf("only %d of 8 residues sampled", len(seen))
	}
}
