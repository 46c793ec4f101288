package zkvm

import (
	"encoding/binary"
	"testing"

	"zkflow/internal/field"
	"zkflow/internal/hashk"
	"zkflow/internal/merkle"
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

// refLogColumn is the serial ratio column: each entry's write factor
// over its read factor, one field inversion an entry.
func refLogColumn(log []MemEntry, alpha, gamma field.Elem) []field.Elem {
	out := make([]field.Elem, len(log))
	acc := field.One
	for i := range log {
		e := &log[i]
		w := refFactor(e.Addr, e.Val, uint32(i+1), alpha, gamma)
		r := refFactor(e.Addr, e.PrevVal, e.PrevTs, alpha, gamma)
		acc = field.Mul(acc, field.Div(w, r))
		out[i] = acc
	}
	return out
}

// refImageColumn is the serial running product over an image's records,
// read at their times or, with atZero, at time zero.
func refImageColumn(img []imageRecord, alpha, gamma field.Elem, atZero bool) []field.Elem {
	out := make([]field.Elem, len(img))
	acc := field.One
	for i, r := range img {
		if atZero {
			r.Ts = 0
		}
		acc = field.Mul(acc, refFactor(r.Addr, r.Val, r.Ts, alpha, gamma))
		out[i] = acc
	}
	return out
}

// checkProductColumns compares the prover's log column at width and
// both image columns with the serial references, and every tuple's
// factor with the longhand one.
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
	defer putProdSlab(logCol)
	for _, c := range []struct {
		name      string
		got, want []field.Elem
	}{
		{"log", logCol, refLogColumn(log, alpha, gamma)},
		{"final", imageColumn(img, &ch, false), refImageColumn(img, alpha, gamma, false)},
		{"init", imageColumn(img, &ch, true), refImageColumn(img, alpha, gamma, true)},
	} {
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

// TestProductColumnsMatchReference checks the parallel ratio scan and
// the image scans against the longhand serial references at widths that
// give even, uneven and single chunks, on empty and one-entry logs, on
// virtual tuples (a fresh read, an image word of zero at time zero),
// and on entries whose words are all 0xffffffff under α = p−1, where
// every 128-bit term of a factor is at its largest, and under α = 2^48,
// whose square is p−1 − 2^32 + 2 (2^96 ≡ −1).
func TestProductColumnsMatchReference(t *testing.T) {
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
		spread,
		maxed,
	}
	alphas := []field.Elem{field.New(12345), field.Elem(field.Modulus - 1), field.New(1 << 48)}
	for _, log := range logs {
		for _, alpha := range alphas {
			for _, w := range []int{1, 2, 3, 5, 16, 1024} {
				checkProductColumns(t, log, imageOf(log), alpha, field.New(987654321), w)
			}
		}
	}
}

// FuzzGrandProduct reads the fuzz input as a log, 17 bytes an entry
// (Addr, Val, PrevVal, PrevTs little-endian, then a flag byte whose low
// bit is IsWrite), and as an image of the same words, and checks the
// prover's three product columns and the factors against the longhand
// references under arbitrary challenges and widths.
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

// pairColumn is the form the log's ratio column was chosen over: per
// entry, a 16-byte record of the running products of the write and of
// the read factors, (∏W, ∏R) through entry i, interleaved in a column
// of 2m elements — two multiplications an entry and a rescale of every
// chunk after the first, no inversion. It is scanned on the same crew
// and chunks as logColumn, into col (2m elements).
func pairColumn(col []field.Elem, log []MemEntry, ch *challenges, width int) []field.Elem {
	n := len(log)
	chunks := width
	if n < 2*width {
		chunks = 1
	}
	size := (n + chunks - 1) / chunks
	bounds := func(c int) (int, int) { return c * size, min((c+1)*size, n) }
	totals := make([][2]field.Elem, chunks)
	par.Each(width, chunks, func(c int) {
		lo, hi := bounds(c)
		w, r := field.One, field.One
		for i := lo; i < hi; i++ {
			w = field.Mul(w, ch.write(&log[i], i))
			r = field.Mul(r, ch.read(&log[i]))
			col[2*i], col[2*i+1] = w, r
		}
		totals[c] = [2]field.Elem{w, r}
	})
	par.Each(width, chunks, func(c int) {
		w, r := field.One, field.One
		for _, t := range totals[:c] {
			w, r = field.Mul(w, t[0]), field.Mul(r, t[1])
		}
		lo, hi := bounds(c)
		for i := lo; c > 0 && i < hi; i++ {
			col[2*i], col[2*i+1] = field.Mul(col[2*i], w), field.Mul(col[2*i+1], r)
		}
	})
	return col
}

// commitPairs commits a pair column as the seal commits its tables:
// salted leaves of four 16-byte records (81 hashed bytes, two
// compressions), two leaves at a time, each builder block reduced by
// the worker that hashed it.
func commitPairs(salts salter, col []field.Elem, width int) *merkle.Tree {
	n := len(col) / 2
	leaves := (n + leafRecords - 1) / leafRecords
	keys := getSaltSlab(saltBytes * leaves)
	defer putSaltSlab(keys)
	salts.keystream(keys, treeLogProd)
	bld := merkle.NewBuilder(leaves)
	msg := func(m *hashk.Msg, j int) int {
		m[0] = hashk.LeafPrefix
		copy(m[1:1+saltBytes], keys[saltBytes*j:])
		k := 1 + saltBytes
		for i := j * leafRecords; i < min((j+1)*leafRecords, n); i++ {
			encodeProdInto(m[k:], col[2*i])
			encodeProdInto(m[k+prodBytes:], col[2*i+1])
			k += 2 * prodBytes
		}
		return k
	}
	par.Each(width, bld.Blocks(), func(block int) {
		first, hs := bld.Leaves(block)
		var a, b hashk.Msg
		i := 0
		for ; i+1 < len(hs); i += 2 {
			na, nb := msg(&a, first+i), msg(&b, first+i+1)
			if na == nb {
				hs[i], hs[i+1] = hashk.SumMsg2(&a, &b, na)
			} else {
				hs[i], hs[i+1] = hashk.SumMsg(&a, na), hashk.SumMsg(&b, nb)
			}
		}
		if i < len(hs) {
			hs[i] = hashk.SumMsg(&a, msg(&a, first+i))
		}
		bld.Reduce(block)
	})
	return bld.Finish()
}

// BenchmarkLogProduct is the micro-lane that chose the log's product
// form: scan and commit one product column over a 72 002-entry log (the
// benchmark's 1000-record aggregation round logs 72 071), as the ratio
// column — four multiplications and one 8-byte record an entry, 0.5
// compressions — and as the pair record — two multiplications and one
// 16-byte record, 0.75 compressions. Run it with -cpu 1,2.
func BenchmarkLogProduct(b *testing.B) {
	ex, err := Execute(loopProgram(), []uint32{36_000}, ExecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	log, width := ex.MemLog, par.Workers()
	pairs := make([]field.Elem, 2*len(log))
	ch := newChallenges(field.New(12345), field.New(987654321))
	salts := newSalter(&[32]byte{5})
	for _, form := range []struct {
		name   string
		commit func() *merkle.Tree
	}{
		{"ratio", func() *merkle.Tree {
			col := logColumn(log, &ch, width)
			defer putProdSlab(col)
			t := prodTable(salts, treeLogProd, col)
			commitTables(width, nil, t)
			putSaltSlab(t.keys)
			return t.tree
		}},
		{"pair", func() *merkle.Tree { return commitPairs(salts, pairColumn(pairs, log, &ch, width), width) }},
	} {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				form.commit().Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(log)), "ns/entry")
		})
	}
}
