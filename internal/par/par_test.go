package par

import (
	"sync/atomic"
	"testing"
)

// TestEachCoversEveryIndexOnce runs Each at widths below, at and above
// the task count and checks that every index runs exactly once — the
// property every caller's "fn owns index i" write pattern rests on.
func TestEachCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, w := range []int{0, 1, 2, 3, 8, 2000} {
			seen := make([]atomic.Int32, n)
			Each(w, n, func(i int) { seen[i].Add(1) })
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("n=%d w=%d: index %d ran %d times", n, w, i, c)
				}
			}
		}
	}
}

// TestWidthOneIsInlineAndOrdered pins the degenerate case: one worker
// runs the indices on the caller's goroutine, in ascending order, so
// unsynchronised state is safe there.
func TestWidthOneIsInlineAndOrdered(t *testing.T) {
	var order []int
	Each(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("width 1 ran %v, want ascending order", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("width 1 ran %d of 5 tasks", len(order))
	}
}

// TestForChunksCoversRangeOnce checks ForChunks tiles [0,n) exactly
// once at any width.
func TestForChunksCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, w := range []int{1, 2, 3, 8, 200} {
			seen := make([]atomic.Int32, n)
			ForChunks(w, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("n=%d w=%d: index %d covered %d times", n, w, i, c)
				}
			}
		}
	}
}
