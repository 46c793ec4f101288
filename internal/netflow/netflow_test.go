package netflow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleRecord(i uint32) Record {
	return Record{
		Key: FlowKey{
			SrcIP:   0x01010101 + i,
			DstIP:   0x09090909,
			SrcPort: uint16(1000 + i),
			DstPort: 443,
			Proto:   6,
		},
		Packets:      100 + i,
		Bytes:        1500 * (100 + i),
		Dropped:      i % 5,
		HopCount:     3 + i%4,
		RTTMicros:    20000 + i,
		JitterMicros: 500 + i,
		StartUnix:    1700000000,
		EndUnix:      1700000005,
		RouterID:     i % 4,
	}
}

func TestKeyWordsRoundTrip(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		return KeyFromWords(k.Words()) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyLessIsStrictOrder(t *testing.T) {
	a := FlowKey{SrcIP: 1}
	b := FlowKey{SrcIP: 2}
	if !a.Less(b) || b.Less(a) || a.Less(a) {
		t.Fatal("Less is not a strict order")
	}
	// Tie on IP, break on port word.
	c := FlowKey{SrcIP: 1, SrcPort: 7}
	if !a.Less(c) {
		t.Fatal("port should break the tie")
	}
}

func TestBatchWordsLayout(t *testing.T) {
	recs := []Record{sampleRecord(1), sampleRecord(2)}
	words := BatchWords(recs)
	if len(words) != 2*RecordWords {
		t.Fatalf("word count %d", len(words))
	}
	if [RecordWords]uint32(words[RecordWords:]) != recs[1].Words() {
		t.Fatal("second record words wrong")
	}
}

func TestParseIPv4(t *testing.T) {
	v, err := ParseIPv4("1.2.3.4")
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x01020304 {
		t.Fatalf("got %#x", v)
	}
	if _, err := ParseIPv4("::1"); err == nil {
		t.Fatal("v6 accepted")
	}
	if _, err := ParseIPv4("notanip"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestKeyString(t *testing.T) {
	k := FlowKey{SrcIP: MustParseIPv4("1.1.1.1"), DstIP: MustParseIPv4("9.9.9.9"), SrcPort: 1234, DstPort: 443, Proto: 6}
	want := "1.1.1.1:1234 -> 9.9.9.9:443/6"
	if k.String() != want {
		t.Fatalf("got %q", k.String())
	}
}

func TestValidate(t *testing.T) {
	r := sampleRecord(0)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := r
	bad.EndUnix = bad.StartUnix - 1
	if bad.Validate() == nil {
		t.Fatal("backwards window accepted")
	}
	bad = r
	bad.Dropped = bad.Packets + 1
	if bad.Validate() == nil {
		t.Fatal("dropped > packets accepted")
	}
}

func TestV9RoundTrip(t *testing.T) {
	recs := make([]Record, 5)
	for i := range recs {
		recs[i] = sampleRecord(uint32(i))
		recs[i].RouterID = 3
	}
	p := &ExportPacket{SysUptime: 1000, UnixSecs: 1700000000, Sequence: 17, SourceID: 3, Records: recs}
	enc := EncodeV9(p)
	dec, err := DecodeV9(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Sequence != 17 || dec.SourceID != 3 {
		t.Fatal("header fields lost")
	}
	if len(dec.Records) != len(recs) {
		t.Fatalf("got %d records", len(dec.Records))
	}
	for i := range recs {
		if dec.Records[i] != recs[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, dec.Records[i], recs[i])
		}
	}
}

func TestV9EmptyPacket(t *testing.T) {
	p := &ExportPacket{SourceID: 1}
	dec, err := DecodeV9(EncodeV9(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Records) != 0 {
		t.Fatal("phantom records")
	}
}

func TestV9RejectsWrongVersion(t *testing.T) {
	enc := EncodeV9(&ExportPacket{})
	enc[0], enc[1] = 0, 5
	if _, err := DecodeV9(enc); err == nil {
		t.Fatal("v5 accepted")
	}
}

func TestV9RejectsTruncated(t *testing.T) {
	enc := EncodeV9(&ExportPacket{Records: []Record{sampleRecord(0)}})
	for _, cut := range []int{3, 19, len(enc) - 1} {
		if _, err := DecodeV9(enc[:cut]); err == nil {
			t.Fatalf("truncated to %d accepted", cut)
		}
	}
}

func TestV9RejectsUnknownFlowset(t *testing.T) {
	enc := EncodeV9(&ExportPacket{})
	// Append a flowset with an unknown id.
	extra := []byte{0x01, 0x2c + 1, 0, 4} // id 301, len 4
	if _, err := DecodeV9(append(enc, extra...)); err == nil {
		t.Fatal("unknown flowset accepted")
	}
}

func TestV9FuzzDecodeNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := EncodeV9(&ExportPacket{Records: []Record{sampleRecord(1), sampleRecord(2)}})
	for i := 0; i < 2000; i++ {
		mut := append([]byte(nil), base...)
		for j := 0; j < 1+rng.Intn(8); j++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		_, _ = DecodeV9(mut) // must not panic
	}
}

func BenchmarkEncodeBatch1000(b *testing.B) {
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = sampleRecord(uint32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeBatch(recs)
	}
}

func BenchmarkDecodeV9(b *testing.B) {
	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = sampleRecord(uint32(i))
	}
	enc := EncodeV9(&ExportPacket{Records: recs})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeV9(enc); err != nil {
			b.Fatal(err)
		}
	}
}
