package zkvm

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"zkflow/internal/field"
	"zkflow/internal/par"
)

// refFactor is a tuple's factor written out longhand, one reduced field
// operation per term: the oracle for challenges.factor's single 128-bit
// reduction and its virtual-tuple rule.
func refFactor(addr, val, ts uint32, alpha, gamma field.Elem) field.Elem {
	if val == 0 && ts == 0 {
		return field.One
	}
	acc := field.New(uint64(addr))
	acc = field.Add(acc, field.Mul(alpha, field.New(uint64(val))))
	acc = field.Add(acc, field.Mul(field.Mul(alpha, alpha), field.New(uint64(ts))))
	return field.Sub(gamma, acc)
}

// refLogColumn is the serial ratio column written out longhand: each
// entry's write factor over its read factor, one field inversion an
// entry, and the running ratio kept at the end of every block of
// leafRecords entries.
func refLogColumn(log []MemEntry, alpha, gamma field.Elem) []field.Elem {
	var out []field.Elem
	acc := field.One
	for i := range log {
		e := &log[i]
		w := refFactor(e.Addr, e.Val, uint32(i+1), alpha, gamma)
		r := refFactor(e.Addr, e.PrevVal, e.PrevTs, alpha, gamma)
		acc = field.Mul(acc, field.Mul(w, field.Inv(r)))
		if i%leafRecords == leafRecords-1 || i == len(log)-1 {
			out = append(out, acc)
		}
	}
	return out
}

// refImageColumn is the serial running product over an image's records,
// read at their times or, with atZero, at time zero, kept at the end of
// every block.
func refImageColumn(img []imageRecord, alpha, gamma field.Elem, atZero bool) []field.Elem {
	var out []field.Elem
	acc := field.One
	for i, r := range img {
		if atZero {
			r.Ts = 0
		}
		acc = field.Mul(acc, refFactor(r.Addr, r.Val, r.Ts, alpha, gamma))
		if i%leafRecords == leafRecords-1 || i == len(img)-1 {
			out = append(out, acc)
		}
	}
	return out
}

// checkProductColumns compares the prover's log column at width and
// both image columns with the serial references, the final table's
// committed elements with (product, address of the block's last record)
// written out by hand, and every tuple's factor with the longhand one.
func checkProductColumns(t *testing.T, log []MemEntry, img []imageRecord, alpha, gamma field.Elem, width int) {
	t.Helper()
	ch := newChallenges(alpha, gamma)
	for i := range log {
		if ch.read(&log[i]) == 0 {
			// gamma is the fingerprint of a read tuple, which happens with
			// probability about m/p over the challenges: the ratio column
			// is undefined, and so is the reference.
			return
		}
	}
	logCol := logColumn(log, &ch, width)
	defer field.Slabs.Put(logCol)
	finalCol := imageColumn(img, &ch, false)
	defer field.Slabs.Put(finalCol)
	for _, c := range []struct {
		name      string
		got, want []field.Elem
	}{
		{"log", logCol, refLogColumn(log, alpha, gamma)},
		{"final", finalCol, refImageColumn(img, alpha, gamma, false)},
		{"init", imageColumn(img, &ch, true), refImageColumn(img, alpha, gamma, true)},
	} {
		if len(c.got) != len(c.want) {
			t.Fatalf("n=%d width %d: %s column has %d elements, want %d", len(log), width, c.name, len(c.got), len(c.want))
		}
		for j := range c.want {
			if c.got[j] != c.want[j] {
				t.Fatalf("n=%d width %d alpha %v: %s element %d = %v, want %v", len(log), width, alpha, c.name, j, c.got[j], c.want[j])
			}
		}
	}
	tab := columnTable(newSalter(&[32]byte{9}), treeFinalProd, img, nil)
	defer saltSlabs.Put(tab.keys)
	tab.prods = finalCol
	var leaf [maxLeafBytes]byte
	for j := range tab.leaves() {
		got := leaf[:tab.encodeLeaf(j, leaf[:])]
		var want []byte
		for e := j * leafRecords; e < min((j+1)*leafRecords, len(finalCol)); e++ {
			want = binary.LittleEndian.AppendUint64(want, uint64(finalCol[e]))
			want = binary.LittleEndian.AppendUint32(want, img[min(leafRecords*e+leafRecords-1, len(img)-1)].Addr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: final column leaf %d encodes %x, want %x", len(img), j, got, want)
		}
	}
	for i := range log {
		e := &log[i]
		if got, want := ch.read(e), refFactor(e.Addr, e.PrevVal, e.PrevTs, alpha, gamma); got != want {
			t.Fatalf("alpha %v: read factor of entry %d = %v, want %v", alpha, i, got, want)
		}
		if got, want := ch.write(e, i), refFactor(e.Addr, e.Val, uint32(i+1), alpha, gamma); got != want {
			t.Fatalf("alpha %v: write factor of entry %d = %v, want %v", alpha, i, got, want)
		}
	}
}

// imageOf reads a log's entries as image records, for the image
// columns' share of a test.
func imageOf(log []MemEntry) []imageRecord {
	img := make([]imageRecord, len(log))
	for i, e := range log {
		img[i] = imageRecord{Addr: e.Addr, Val: e.Val, Ts: e.PrevTs}
	}
	return img
}

// gomaxprocs are the crew widths the column tests run the prover at.
var gomaxprocs = []int{1, 2, 4, 7}

// TestProductColumnsMatchReference checks the parallel block scan of
// the ratio column and the image scans against the longhand serial
// references, at GOMAXPROCS 1, 2, 4 and 7 and at widths that give even,
// uneven and single chunks, on empty and one-entry logs, on logs
// ending in a full and in a short block, on virtual tuples (a fresh
// read, an image word of zero at time zero), and on entries whose words
// are all 0xffffffff under α = p−1, where every 128-bit term of a
// factor is at its largest, and under α = 2^48, whose square is
// p−1 − 2^32 + 2 (2^96 ≡ −1).
func TestProductColumnsMatchReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	spread := make([]MemEntry, 1037)
	for i := range spread {
		spread[i] = MemEntry{Addr: uint32(i % 61), Val: uint32(i * 7), PrevVal: uint32(i * 5 % 3), PrevTs: uint32(i / 2), IsWrite: i%3 == 0}
	}
	maxed := make([]MemEntry, 300)
	for i := range maxed {
		maxed[i] = MemEntry{Addr: 0xffffffff - uint32(i%5), Val: 0xffffffff, PrevVal: 0xffffffff, PrevTs: 0xffffffff, IsWrite: i%2 == 0}
	}
	logs := [][]MemEntry{
		nil,
		{{Addr: 0xffffffff, Val: 0xffffffff, IsWrite: true}},
		{{Addr: 7}, {Addr: 7, Val: 9, PrevTs: 1, IsWrite: true}, {Addr: 0, Val: 0, PrevVal: 0, PrevTs: 0}},
		spread[:4],
		spread[:5],
		spread[:64],
		spread,
		maxed,
	}
	alphas := []field.Elem{field.New(12345), field.Elem(field.Modulus - 1), field.New(1 << 48)}
	for _, procs := range gomaxprocs {
		runtime.GOMAXPROCS(procs)
		for _, log := range logs {
			for _, alpha := range alphas {
				for _, w := range []int{1, 2, 3, 5, 16, 1024, par.Workers()} {
					checkProductColumns(t, log, imageOf(log), alpha, field.New(987654321), w)
				}
			}
		}
	}
}

// FuzzGrandProduct reads the fuzz input as a log, 17 bytes an entry
// (Addr, Val, PrevVal, PrevTs little-endian, then a flag byte whose low
// bit is IsWrite), and as an image of the same words, and checks the
// prover's three block columns and the factors against the longhand
// references under arbitrary challenges, at a width and a GOMAXPROCS
// (1, 2, 4 or 7) the input picks.
func FuzzGrandProduct(f *testing.F) {
	f.Add([]byte{}, uint64(1), uint64(2), uint8(1))
	ones := make([]byte, 17*9)
	for i := range ones {
		ones[i] = 0xff
	}
	f.Add(ones, field.Modulus-1, field.Modulus-1, uint8(2))
	f.Add(ones, uint64(1<<48), uint64(5), uint8(3))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, uint64(7), ^uint64(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, alpha, gamma uint64, width uint8) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomaxprocs[int(width)%len(gomaxprocs)]))
		log := make([]MemEntry, len(data)/17)
		for i := range log {
			b := data[17*i:]
			log[i] = MemEntry{
				Addr:    binary.LittleEndian.Uint32(b),
				Val:     binary.LittleEndian.Uint32(b[4:]),
				PrevVal: binary.LittleEndian.Uint32(b[8:]),
				PrevTs:  binary.LittleEndian.Uint32(b[12:]),
				IsWrite: b[16]&1 == 1,
			}
		}
		checkProductColumns(t, log, imageOf(log), field.New(alpha), field.New(gamma), 1+int(width%8))
	})
}

// BenchmarkLogProduct is the micro-lane of the log's product column:
// scan and commit the block ratio column over a 72 002-entry log (the
// benchmark's 1000-record aggregation round logs 72 071) — about two
// multiplications an entry and one 8-byte element a block of four
// entries, 0.125 compressions an entry. Run it with -cpu 1,2.
func BenchmarkLogProduct(b *testing.B) {
	ex, err := Execute(loopProgram(), []uint32{36_000}, ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	log, width := ex.MemLog, par.Workers()
	ch := newChallenges(field.New(12345), field.New(987654321))
	salts := newSalter(&[32]byte{5})
	b.ReportAllocs()
	for range b.N {
		col := logColumn(log, &ch, width)
		t := prodTable(salts, treeLogProd, col)
		commitTables(width, nil, t)
		saltSlabs.Put(t.keys)
		field.Slabs.Put(col)
		t.tree.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(log)), "ns/entry")
}
