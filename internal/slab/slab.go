// Package slab recycles the provers' large scratch slices — trace and
// log slabs, boundary images, product columns, salt keystreams, Merkle
// arenas and the STARK kernel's working sets — so steady-state proving
// keeps them out of the allocator and skips the runtime's zeroing of
// fresh large objects.
//
// Capacities come in size classes, eight to an octave: every size below
// 16, then m<<s for m in [8, 16). A new slab is at most an eighth larger
// than asked for, a recycled one at most twice, and a slice of any
// capacity can be put back.
// Pooling never changes what a caller computes: a slab's contents are
// arbitrary, and every caller writes what it reads.
package slab

import (
	"math/bits"
	"sync"
)

// classes is the number of size classes an int capacity can fall in.
const classes = 8 * (bits.UintSize - 3)

// Pool recycles slices of T by size class. The zero value is ready to
// use and safe for concurrent use; a nil *Pool makes every slab fresh
// and drops what is put back.
type Pool[T any] struct {
	free  [classes]sync.Pool // *[]T, filed by capacity
	boxes sync.Pool          // empty *[]T headers, so a Put allocates none
}

// floor is the largest class whose capacity is at most c.
func floor(c int) int {
	s := max(bits.Len(uint(c))-4, 0)
	return 8*s + c>>s
}

// size is the capacity of class i.
func size(i int) int {
	if i < 16 {
		return i
	}
	return (8 + i%8) << (i/8 - 1)
}

// Get returns a slice of length n, its contents arbitrary: a slab from
// the smallest class at or above n that holds one, up to 2n, or else a
// new slab of exactly the smallest class's capacity. Get(0) is empty.
//
// Looking up to 2n lets a trace slab that one run doubled past its size
// hint serve the next run, which asks for the hint.
func (p *Pool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	if p == nil {
		return make([]T, n)
	}
	lo := floor(n-1) + 1
	for i := lo; i <= min(floor(2*n), classes-1); i++ {
		if v := p.free[i].Get(); v != nil {
			box := v.(*[]T)
			s := (*box)[:n]
			*box = nil
			p.boxes.Put(box)
			return s
		}
	}
	return make([]T, n, size(lo))
}

// Put files s, whatever its length or origin, under the largest class
// not above its capacity. The caller must not use s afterwards.
func (p *Pool[T]) Put(s []T) {
	if p == nil || cap(s) == 0 {
		return
	}
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:0]
	p.free[floor(cap(s))].Put(box)
}
