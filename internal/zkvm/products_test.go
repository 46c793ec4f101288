package zkvm

import (
	"encoding/binary"
	"testing"

	"zkflow/internal/field"
)

// refFingerprint is the five-term fingerprint written out longhand,
// one reduced field operation per term: the oracle for fingerprintAt's
// single 128-bit reduction.
func refFingerprint(e *MemEntry, alpha field.Elem) field.Elem {
	a2 := field.Mul(alpha, alpha)
	a3 := field.Mul(a2, alpha)
	a4 := field.Mul(a3, alpha)
	acc := field.New(uint64(e.Addr))
	acc = field.Add(acc, field.Mul(alpha, field.New(uint64(e.Val))))
	acc = field.Add(acc, field.Mul(a2, field.New(uint64(e.Seq))))
	acc = field.Add(acc, field.Mul(a3, field.New(uint64(e.Step))))
	if e.IsWrite {
		acc = field.Add(acc, a4)
	}
	return acc
}

// refProducts is the serial running product of (gamma - f(e)) over log,
// each entry fingerprinted where it stands.
func refProducts(log []MemEntry, alpha, gamma field.Elem) []field.Elem {
	out := make([]field.Elem, len(log))
	acc := field.One
	for i := range log {
		acc = field.Mul(acc, field.Sub(gamma, refFingerprint(&log[i], alpha)))
		out[i] = acc
	}
	return out
}

// checkProductColumns compares both of productColumns' columns with
// the serial reference. The reference fingerprints the address-ordered
// entries themselves, so the sort column's match also shows that the
// gather through Seq picks each entry's own fingerprint.
func checkProductColumns(t *testing.T, log []MemEntry, alpha, gamma field.Elem, width int) {
	t.Helper()
	sorted := sortedMemLog(log)
	defer putMemSlab(sorted)
	prog, sort := productColumns(log, sorted, alpha, gamma, width)
	for _, c := range []struct {
		name      string
		got, want []field.Elem
	}{{"program order", prog, refProducts(log, alpha, gamma)}, {"address order", sort, refProducts(sorted, alpha, gamma)}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("n=%d width %d: %s column has %d elements, want %d", len(log), width, c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Fatalf("n=%d width %d alpha %v: %s product[%d] = %v, want %v", len(log), width, alpha, c.name, i, c.got[i], c.want[i])
			}
		}
	}
	for i := range log {
		if got, want := fingerprint(&log[i], alpha), refFingerprint(&log[i], alpha); got != want {
			t.Fatalf("alpha %v: fingerprint of entry %d = %v, want %v", alpha, i, got, want)
		}
	}
}

// TestProductColumnsMatchReference checks the parallel scans against
// the longhand serial reference at widths that give even, uneven and
// single chunks, on empty and one-entry logs, and on entries whose
// other words are all 0xffffffff under α = p−1, where every 128-bit
// term of the fingerprint is at its largest, and under α = 2^24, whose
// fourth power is p−1 (2^96 ≡ −1), so that adding a write's α⁴ carries
// out of the low word.
func TestProductColumnsMatchReference(t *testing.T) {
	spread := make([]MemEntry, 1037)
	for i := range spread {
		spread[i] = MemEntry{Addr: uint32(i % 61), Val: uint32(i * 7), Seq: uint32(i), Step: uint32(i * 3), IsWrite: i%3 == 0}
	}
	maxed := make([]MemEntry, 300)
	for i := range maxed {
		maxed[i] = MemEntry{Addr: 0xffffffff - uint32(i%5), Val: 0xffffffff, Seq: uint32(i), Step: 0xffffffff, IsWrite: i%2 == 0}
	}
	logs := [][]MemEntry{
		nil,
		{{Addr: 0xffffffff, Val: 0xffffffff, Step: 0xffffffff, IsWrite: true}},
		spread,
		maxed,
	}
	alphas := []field.Elem{field.New(12345), field.Elem(field.Modulus - 1), field.New(1 << 24)}
	for _, log := range logs {
		for _, alpha := range alphas {
			for _, w := range []int{1, 2, 3, 5, 16, 1024} {
				checkProductColumns(t, log, alpha, field.New(987654321), w)
			}
		}
	}
	// Every word at 0xffffffff, Seq too: the fingerprint's extreme.
	e := MemEntry{Addr: 0xffffffff, Val: 0xffffffff, Seq: 0xffffffff, Step: 0xffffffff, IsWrite: true}
	for _, alpha := range alphas {
		if got, want := fingerprint(&e, alpha), refFingerprint(&e, alpha); got != want {
			t.Fatalf("alpha %v: fingerprint of the all-ones entry = %v, want %v", alpha, got, want)
		}
	}
}

// FuzzGrandProduct reads the fuzz input as a program-order log, 13
// bytes an entry (Addr, Val, Step little-endian, then a flag byte whose
// low bit is IsWrite; Seq is the index), and checks the prover's two
// product columns and the verifier's fingerprint against the longhand
// reference under arbitrary challenges and widths.
func FuzzGrandProduct(f *testing.F) {
	f.Add([]byte{}, uint64(1), uint64(2), uint8(1))
	ones := make([]byte, 13*9)
	for i := range ones {
		ones[i] = 0xff
	}
	f.Add(ones, field.Modulus-1, field.Modulus-1, uint8(2))
	f.Add(ones, uint64(1<<24), uint64(5), uint8(3))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 1}, uint64(7), ^uint64(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, alpha, gamma uint64, width uint8) {
		log := make([]MemEntry, len(data)/13)
		for i := range log {
			b := data[13*i:]
			log[i] = MemEntry{
				Addr:    binary.LittleEndian.Uint32(b),
				Val:     binary.LittleEndian.Uint32(b[4:]),
				Seq:     uint32(i),
				Step:    binary.LittleEndian.Uint32(b[8:]),
				IsWrite: b[12]&1 == 1,
			}
		}
		checkProductColumns(t, log, field.New(alpha), field.New(gamma), 1+int(width%8))
	})
}
