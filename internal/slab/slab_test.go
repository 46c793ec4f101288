package slab

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// TestClasses pins the class rule: classes are contiguous and
// ascending, a capacity files under a class no larger than itself, and
// the smallest class at or above n is at most an eighth larger than n —
// a cut segment's 2^17+1 rows must not double.
func TestClasses(t *testing.T) {
	for i := 1; i < classes; i++ {
		if size(i) <= size(i-1) || floor(size(i)) != i {
			t.Fatalf("class %d: size %d after %d, floor %d", i, size(i), size(i-1), floor(size(i)))
		}
	}
	if last := floor(math.MaxInt); last != classes-1 {
		t.Fatalf("floor(MaxInt) = %d, want the last class %d", last, classes-1)
	}
	check := func(n int) {
		c := size(floor(n-1) + 1)
		if c < n || 8*(c-n) > n {
			t.Fatalf("Get(%d) takes class %d: below n or more than n/8 over it", n, c)
		}
		if f := size(floor(n)); f > n || size(floor(n)+1) <= n {
			t.Fatalf("capacity %d files under class %d", n, f)
		}
	}
	for n := 1; n <= 1<<14; n++ {
		check(n)
	}
	for s := 14; s < 62; s++ {
		for _, d := range []int{-1, 0, 1, 3} {
			check(1<<s + d)
		}
	}
}

// TestGetSizes sweeps n through Get: length n, capacity n rounded up to
// its class, and Get(0) empty.
func TestGetSizes(t *testing.T) {
	var p Pool[uint64]
	if s := p.Get(0); len(s) != 0 {
		t.Fatalf("Get(0) has length %d", len(s))
	}
	for n := 1; n <= 1<<12; n++ {
		s := p.Get(n)
		if len(s) != n || cap(s) != size(floor(n-1)+1) {
			t.Fatalf("Get(%d): len %d cap %d, want cap %d", n, len(s), cap(s), size(floor(n-1)+1))
		}
		p.Put(s)
	}
	if s := p.Get(1<<17 + 1); cap(s) != 9<<14 {
		t.Fatalf("Get(2^17+1) has capacity %d, want %d", cap(s), 9<<14)
	}
}

// TestPutAnyCapacity puts back slices of capacities no Get hands out —
// grown, foreign, resliced — and finds each filed under the largest
// class not above its capacity: a Get from that class or down to half
// its size takes it, a Get above it or of less than half does not.
func TestPutAnyCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool,
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // and a slab parked on another P is out of reach
	for _, c := range []int{1, 7, 17, 100, 129, 1000, 1<<10 + 3, 5000, 1<<17 + 1} {
		s := make([]byte, 1, c)
		n := size(floor(c))
		for _, m := range []int{(n - 1) / 2, n + 1, n, (n + 1) / 2} {
			p := new(Pool[byte])
			p.Put(s)
			got := p.Get(m)
			took := m > 0 && &got[:1][0] == &s[0]
			if len(got) != m || cap(got) < m || took != (m > 0 && m <= n && 2*m >= n) {
				t.Fatalf("capacity %d, class %d: Get(%d) has len %d cap %d, took the slice put back: %v", c, n, m, len(got), cap(got), took)
			}
		}
	}
}

// TestPooledBufferReuse pins that the pool actually recycles: a get/put
// cycle at a warm size class does not allocate, header included.
func TestPooledBufferReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	var p Pool[uint64]
	p.Put(p.Get(1 << 10)) // warm the class
	if a := testing.AllocsPerRun(10, func() {
		b := p.Get(1 << 10)
		p.Put(b)
	}); a > 0 {
		t.Fatalf("warm Get/Put allocates %v per run, want 0", a)
	}
}

// TestConcurrentGetPut has goroutines share one pool over overlapping
// classes: no slab is ever held by two at once.
func TestConcurrentGetPut(t *testing.T) {
	var p Pool[int]
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := p.Get(1 + (i*g)%300)
				for j := range s {
					s[j] = g
				}
				runtime.Gosched()
				for _, v := range s {
					if v != g {
						t.Errorf("goroutine %d found %d in its slab", g, v)
						return
					}
				}
				p.Put(s)
			}
		}()
	}
	wg.Wait()
}

// TestNilPool: a nil pool makes every slab fresh and keeps nothing.
func TestNilPool(t *testing.T) {
	var p *Pool[int]
	s := p.Get(5)
	if len(s) != 5 || cap(s) != 5 {
		t.Fatalf("nil pool Get(5): len %d cap %d", len(s), cap(s))
	}
	p.Put(s)
}
