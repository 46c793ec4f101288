package zkvm

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// refSortedMemLog is the comparison sort the linear one replaced, kept
// as its oracle: (Addr, Seq) is a strict total order, so any correct
// sort yields the same permutation.
func refSortedMemLog(log []MemEntry) []MemEntry {
	out := slices.Clone(log)
	slices.SortFunc(out, func(a, b MemEntry) int {
		if a.Addr != b.Addr {
			return cmp.Compare(a.Addr, b.Addr)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	return out
}

// memLogOf builds a program-order log (Seq == index, as the emulator
// guarantees) over the given addresses.
func memLogOf(addrs []uint32) []MemEntry {
	log := make([]MemEntry, len(addrs))
	for i, a := range addrs {
		log[i] = MemEntry{Addr: a, Val: uint32(i) * 2654435761, Seq: uint32(i), Step: uint32(i / 2), IsWrite: i%3 == 0}
	}
	return log
}

func checkSortedMemLog(t *testing.T, name string, log []MemEntry) {
	t.Helper()
	before := slices.Clone(log)
	got := sortedMemLog(log)
	if !slices.Equal(log, before) {
		t.Fatalf("%s: sortedMemLog modified its input", name)
	}
	if want := refSortedMemLog(log); !slices.Equal(got, want) {
		t.Fatalf("%s: linear sort differs from the comparison sort over %d entries", name, len(log))
	}
	if len(log) > 0 && &got[0] == &log[0] {
		t.Fatalf("%s: result aliases the input", name)
	}
	putMemSlab(got)
}

// TestSortedMemLogMatchesReference runs the linear sort against the
// comparison sort on the shapes where a radix sort goes wrong: empty
// and single logs, one address throughout (no pass moves anything),
// heavy duplicates (stability carries the Seq order), the extreme
// addresses, and addresses that differ in only one byte or share
// constant bytes, so that every subset of skipped passes — and both
// parities of buffer swaps — is hit.
func TestSortedMemLogMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	random := func(n int, mask, base uint32) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = rng.Uint32()&mask | base
		}
		return out
	}
	cases := map[string][]uint32{
		"empty":            nil,
		"single":           {7},
		"all same address": random(500, 0, 0x1234),
		"extremes":         {0xFFFFFFFF, 0, 0xFFFFFFFF, 0, 1, 0xFFFFFFFE, 0x80000000, 0x7FFFFFFF},
		"duplicates":       random(5000, 0x3F, 0),
		"low byte only":    random(3000, 0xFF, 0xABCD1200),
		"byte 1 only":      random(3000, 0xFF00, 0x12000034),
		"byte 2 only":      random(3000, 0xFF0000, 0x56000078),
		"high byte only":   random(3000, 0xFF000000, 0x009A00BC),
		"bytes 0 and 2":    random(3000, 0x00FF00FF, 0x11002200),
		"bytes 1 and 3":    random(3000, 0xFF00FF00, 0x00330044),
		"three bytes":      random(3000, 0x00FFFFFF, 0x42000000),
		"all four bytes":   random(20_000, 0xFFFFFFFF, 0),
		"descending":       {9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
	}
	for name, addrs := range cases {
		checkSortedMemLog(t, name, memLogOf(addrs))
	}
	// A real trace: a few dense regions, imports included.
	ex := parallelTestExecution(t, 200)
	checkSortedMemLog(t, "guest trace", ex.MemLog)
}

// FuzzSortedMemLog reads the fuzz input as little-endian addresses,
// masked and offset by the first two words so that the fuzzer can
// reach every pattern of constant bytes.
func FuzzSortedMemLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3, 4, 4, 3, 2, 1, 1, 2, 3, 4})
	f.Add([]byte{0xff, 0, 0, 0, 0, 0x10, 0, 0, 9, 9, 9, 9, 1, 1, 1, 1, 9, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint32, len(data)/4)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		var addrs []uint32
		if len(words) > 2 {
			mask, base := words[0], words[1]
			for _, w := range words[2:] {
				addrs = append(addrs, w&mask|base)
			}
		}
		log := memLogOf(addrs)
		got := sortedMemLog(log)
		if !slices.Equal(got, refSortedMemLog(log)) {
			t.Fatalf("linear sort differs from the comparison sort over %d entries", len(log))
		}
		putMemSlab(got)
	})
}
