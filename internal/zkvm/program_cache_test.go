package zkvm

import (
	"crypto/sha256"
	"sync"
	"testing"
)

// TestImageIDCacheHit pins that the memoized image commitment is the
// same value the uncached computation produces, and that repeated
// calls return the identical commitment.
func TestImageIDCacheHit(t *testing.T) {
	prog := sumProgram()
	want := ImageID(sha256.Sum256(prog.Encode()))
	if got := prog.ID(); got != want {
		t.Fatalf("first ID() = %v, want fresh digest %v", got, want)
	}
	if got := prog.ID(); got != want {
		t.Fatalf("cached ID() = %v, want %v", got, want)
	}
}

// TestImageIDCacheKeyedByDigest pins that the cache cannot leak across
// programs: a program whose encoding differs gets a different
// commitment, and re-decoding the same encoding (a fresh Program value
// with a cold cache) reproduces the cached one.
func TestImageIDCacheKeyedByDigest(t *testing.T) {
	prog := sumProgram()
	id := prog.ID()

	other := &Program{Instrs: append([]Instr(nil), prog.Instrs...)}
	other.Instrs[0].Imm ^= 1
	if other.ID() == id {
		t.Fatal("program with different digest returned the cached commitment")
	}

	redecoded, err := DecodeProgram(prog.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if redecoded.ID() != id {
		t.Fatal("cold-cache recomputation disagrees with cached commitment")
	}
}

// TestImageIDConcurrent hammers the memo from many goroutines — an
// epoch batch's concurrent seals all call ID() on the shared
// guest program. Run under -race in the `make race` lane.
func TestImageIDConcurrent(t *testing.T) {
	prog := sumProgram()
	want := ImageID(sha256.Sum256(prog.Encode()))
	var wg sync.WaitGroup
	ids := make([]ImageID, 32)
	for g := range ids {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ids[g] = prog.ID()
			}
		}(g)
	}
	wg.Wait()
	for g, id := range ids {
		if id != want {
			t.Fatalf("goroutine %d saw ID %v, want %v", g, id, want)
		}
	}
}
