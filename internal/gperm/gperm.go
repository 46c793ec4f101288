// Package gperm implements an algebraic permutation over the
// Goldilocks field, in the style of Rescue-Prime/Poseidon: a width-12
// state transformed by R full rounds of (x^7 S-box, MDS mix, round
// constant addition). Unlike SHA-256, every round is a low-degree
// polynomial map, so a STARK can prove a chain of these permutations
// with one trace row per round — this is exactly the "specialized proof
// system" speed-up path discussed in §7 of the paper.
//
// Parameters are demonstration-grade (8 full rounds): they
// give the right cost model and interfaces for the ablation benchmarks
// but have not been cryptanalysed for production use. Round constants
// are derived from SHA-256 ("nothing up my sleeve"); the MDS matrix is a
// Cauchy matrix, which is MDS over any prime field.
package gperm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"zkflow/internal/field"
)

const (
	// Width is the number of field elements in the permutation state.
	Width = 12
	// Rounds is the number of full S-box rounds.
	Rounds = 8
)

// State is the permutation state.
type State [Width]field.Elem

// RoundConstants[r][i] is the constant added to state element i after
// the mix layer of round r.
var RoundConstants [Rounds][Width]field.Elem

// MDS is the Cauchy mixing matrix: MDS[i][j] = 1/(x_i + y_j) with
// x_i = i, y_j = Width + j, all sums distinct and nonzero.
var MDS [Width][Width]field.Elem

func init() {
	for r := 0; r < Rounds; r++ {
		for i := 0; i < Width; i++ {
			h := sha256.Sum256([]byte(fmt.Sprintf("zkflow-gperm-rc-%d-%d", r, i)))
			RoundConstants[r][i] = field.New(binary.BigEndian.Uint64(h[:8]))
		}
	}
	for i := 0; i < Width; i++ {
		for j := 0; j < Width; j++ {
			MDS[i][j] = field.Inv(field.New(uint64(i + Width + j)))
		}
	}
}

// Round applies a single round r to the state in place:
// state <- MDS * (state^7) + RoundConstants[r].
func (s *State) Round(r int) {
	var sboxed [Width]field.Elem
	for i := 0; i < Width; i++ {
		sboxed[i] = field.Pow7(s[i])
	}
	for i := 0; i < Width; i++ {
		var acc field.Elem
		for j := 0; j < Width; j++ {
			acc = field.Add(acc, field.Mul(MDS[i][j], sboxed[j]))
		}
		s[i] = field.Add(acc, RoundConstants[r][i])
	}
}

// Permute applies all rounds to the state in place.
func (s *State) Permute() {
	for r := 0; r < Rounds; r++ {
		s.Round(r)
	}
}
