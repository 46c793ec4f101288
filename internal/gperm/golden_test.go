package gperm

import (
	"testing"

	"zkflow/internal/field"
)

// TestGoldenVectors pins the permutation's exact behaviour: round
// constants and the MDS matrix are derived in init(), and any
// accidental change would silently invalidate every committed chain
// proof and fastagg receipt in the wild. If this test fails after an
// intentional parameter change, bump the protocol labels too.
func TestGoldenVectors(t *testing.T) {
	if got, want := uint64(RoundConstants[0][0]), uint64(0x295e2f783d20f4ce); got != want {
		t.Errorf("RoundConstants[0][0] = %#x, want %#x", got, want)
	}
	var s State
	s[0] = field.One
	s.Permute()
	if got, want := uint64(s[0]), uint64(0xd0d54cff81871985); got != want {
		t.Errorf("Permute([1,0,...])[0] = %#x, want %#x", got, want)
	}
}
