package gperm

import (
	"testing"
	"testing/quick"

	"zkflow/internal/field"
)

func TestPermuteDeterministic(t *testing.T) {
	var a, b State
	a[0], b[0] = field.New(1), field.New(1)
	a.Permute()
	b.Permute()
	if a != b {
		t.Fatal("permutation not deterministic")
	}
}

func TestPermuteChangesState(t *testing.T) {
	var s State
	before := s
	s.Permute()
	if s == before {
		t.Fatal("permutation is identity on zero state")
	}
}

func TestPermuteIsBijective(t *testing.T) {
	// Distinct inputs must map to distinct outputs (spot check): if the
	// MDS matrix were singular this would fail quickly.
	seen := make(map[State]State)
	for i := uint64(0); i < 64; i++ {
		var s State
		s[0] = field.New(i)
		in := s
		s.Permute()
		if prev, ok := seen[s]; ok {
			t.Fatalf("collision: %v and %v map to same state", prev, in)
		}
		seen[s] = in
	}
}

func TestMDSIsInvertibleOnBasis(t *testing.T) {
	// Every column of the Cauchy matrix must be nonzero everywhere
	// (necessary condition for MDS).
	for i := 0; i < Width; i++ {
		for j := 0; j < Width; j++ {
			if MDS[i][j] == 0 {
				t.Fatalf("MDS[%d][%d] = 0", i, j)
			}
		}
	}
}

func TestRoundMatchesPermute(t *testing.T) {
	f := func(seed uint64) bool {
		var a, b State
		a[0], b[0] = field.New(seed), field.New(seed)
		a.Permute()
		for r := 0; r < Rounds; r++ {
			b.Round(r)
		}
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPermute(b *testing.B) {
	var s State
	s[0] = field.New(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Permute()
	}
}
