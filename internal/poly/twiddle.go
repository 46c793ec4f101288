// Process-wide caches for the NTT kernel: per-size twiddle tables and
// per-(start, ratio, size) geometric power ladders. Everything here is
// built once and then read-only, the same memoize-once discipline as
// zkvm.Program.ID — steady-state proving does table lookups, never root
// recomputation.
//
// None of this affects proof bytes: the tables hold exactly the
// values the retained serial reference computes with chained
// multiplies (field arithmetic is exact).
package poly

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"zkflow/internal/field"
)

// twiddleTables holds the flat per-stage twiddle tables of one NTT
// size: for stage s (block size m = 2^s, half = m/2) the twiddles
// w_m^j for j < half live at [half, m). Index 0 is unused; the total
// is exactly n entries. fwd serves NTT, inv serves INTT, and nInv is
// the 1/n final scaling of the inverse transform.
type twiddleTables struct {
	fwd, inv []field.Elem
	nInv     field.Elem
}

// twiddleCache memoizes tables by log-size. Lock-free: readers load
// an atomic pointer; a miss builds the table and publishes it with a
// CAS. Two racing builders produce identical tables, so whichever
// publication wins is correct.
var twiddleCache [field.TwoAdicity + 1]atomic.Pointer[twiddleTables]

func twiddles(logN int) *twiddleTables {
	if t := twiddleCache[logN].Load(); t != nil {
		return t
	}
	t := buildTwiddles(logN)
	twiddleCache[logN].CompareAndSwap(nil, t)
	return twiddleCache[logN].Load()
}

func buildTwiddles(logN int) *twiddleTables {
	n := 1 << logN
	t := &twiddleTables{
		fwd:  make([]field.Elem, n),
		inv:  make([]field.Elem, n),
		nInv: field.Inv(field.New(uint64(n))),
	}
	root := field.RootOfUnity(logN)
	rootInv := field.Inv(root)
	for s := 1; s <= logN; s++ {
		m := 1 << s
		half := m >> 1
		wmF := field.Exp(root, uint64(n/m))
		wmI := field.Exp(rootInv, uint64(n/m))
		wf, wi := field.One, field.One
		for j := 0; j < half; j++ {
			t.fwd[half+j] = wf
			t.inv[half+j] = wi
			wf = field.Mul(wf, wmF)
			wi = field.Mul(wi, wmI)
		}
	}
	return t
}

// ladderKey identifies one cached power ladder.
type ladderKey struct {
	start, ratio uint64
	logN         int
}

// ladderCache memoizes geometric ladders. The key set is small in
// practice: the LDE coset shift (and its per-FRI-layer squares) and
// their inverses, at the handful of domain sizes a deployment proves.
var ladderCache sync.Map // ladderKey -> []field.Elem

// PowerLadder returns the geometric ladder L[i] = start * ratio^i for
// i < n (n a power of two), cached process-wide. The returned slice
// is shared and MUST be treated as read-only by callers. The values
// are built by the same chained multiplication a serial loop would
// perform, so substituting the ladder for an inline accumulator never
// changes a single output bit.
func PowerLadder(start, ratio field.Elem, n int) []field.Elem {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("poly: ladder size %d is not a power of two", n))
	}
	key := ladderKey{start: uint64(start), ratio: uint64(ratio), logN: bits.TrailingZeros(uint(n))}
	if v, ok := ladderCache.Load(key); ok {
		return v.([]field.Elem)
	}
	l := make([]field.Elem, n)
	acc := start
	for i := 0; i < n; i++ {
		l[i] = acc
		acc = field.Mul(acc, ratio)
	}
	actual, _ := ladderCache.LoadOrStore(key, l)
	return actual.([]field.Elem)
}
