package netflow

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// v9Packet hand-builds an export packet from raw flowsets.
func v9Packet(source uint32, flowsets ...[]byte) []byte {
	var out []byte
	u16 := func(v uint16) { out = binary.BigEndian.AppendUint16(out, v) }
	u32 := func(v uint32) { out = binary.BigEndian.AppendUint32(out, v) }
	u16(V9Version)
	u16(0) // count: unused by the decoder
	u32(1000)
	u32(1700000000)
	u32(1)
	u32(source)
	for _, fs := range flowsets {
		out = append(out, fs...)
	}
	return out
}

// v9Flowset frames a flowset body with id + length.
func v9Flowset(id uint16, body []byte) []byte {
	out := make([]byte, 4, 4+len(body))
	binary.BigEndian.PutUint16(out, id)
	binary.BigEndian.PutUint16(out[2:], uint16(4+len(body)))
	return append(out, body...)
}

// v9TemplateBody builds a template-flowset body for one template.
func v9TemplateBody(tid uint16, fields [][2]uint16) []byte {
	var out []byte
	u16 := func(v uint16) { out = binary.BigEndian.AppendUint16(out, v) }
	u16(tid)
	u16(uint16(len(fields)))
	for _, f := range fields {
		u16(f[0])
		u16(f[1])
	}
	return out
}

// TestV9DecoderNonZkflowTemplate decodes a data flowset under a
// template zkflow did not define: different ID (400), reordered
// fields, an unknown enterprise field to skip, and a 2-byte packet
// counter.
func TestV9DecoderNonZkflowTemplate(t *testing.T) {
	const tid = 400
	fields := [][2]uint16{
		{fieldBytes, 4},
		{9999, 6}, // unknown type: skipped by length
		{fieldIPv4Dst, 4},
		{fieldIPv4Src, 4},
		{fieldPackets, 2},
		{fieldProto, 1},
	}
	var rec []byte
	rec = binary.BigEndian.AppendUint32(rec, 5555)       // bytes
	rec = append(rec, 1, 2, 3, 4, 5, 6)                  // unknown field payload
	rec = binary.BigEndian.AppendUint32(rec, 0x0a000002) // dst
	rec = binary.BigEndian.AppendUint32(rec, 0x0a000001) // src
	rec = binary.BigEndian.AppendUint16(rec, 77)         // packets (2 bytes)
	rec = append(rec, 17)                                // proto
	d := NewV9Decoder(0)

	// Template and data arrive in separate packets, as real exporters
	// send them.
	if _, err := d.Decode(v9Packet(9, v9Flowset(0, v9TemplateBody(tid, fields)))); err != nil {
		t.Fatal(err)
	}
	p, err := d.Decode(v9Packet(9, v9Flowset(tid, rec)))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Records) != 1 {
		t.Fatalf("got %d records, want 1", len(p.Records))
	}
	r := p.Records[0]
	if r.Bytes != 5555 || r.Key.SrcIP != 0x0a000001 || r.Key.DstIP != 0x0a000002 ||
		r.Packets != 77 || r.Key.Proto != 17 || r.RouterID != 9 {
		t.Fatalf("decoded %+v", r)
	}
}

// TestV9DecoderTemplateScopedToSource checks that template IDs do not
// leak between exporters: source 2 sending data under source 1's
// template ID is a miss, not a mis-decode.
func TestV9DecoderTemplateScopedToSource(t *testing.T) {
	const tid = 300
	fields := [][2]uint16{{fieldIPv4Src, 4}}
	rec := binary.BigEndian.AppendUint32(nil, 1)
	d := NewV9Decoder(0)
	if _, err := d.Decode(v9Packet(1, v9Flowset(0, v9TemplateBody(tid, fields)))); err != nil {
		t.Fatal(err)
	}
	p, err := d.Decode(v9Packet(2, v9Flowset(tid, rec)))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Records) != 0 {
		t.Fatal("other source's template was applied")
	}
	if d.TemplateMisses() != 1 {
		t.Fatalf("misses = %d, want 1", d.TemplateMisses())
	}
}

// TestV9DecoderEviction fills a size-2 cache with three templates:
// the oldest must fall out, its data flowsets then count as misses,
// and re-announcing the template restores decoding.
func TestV9DecoderEviction(t *testing.T) {
	fields := [][2]uint16{{fieldIPv4Src, 4}}
	rec := binary.BigEndian.AppendUint32(nil, 7)
	d := NewV9Decoder(2)
	for _, tid := range []uint16{300, 301, 302} {
		if _, err := d.Decode(v9Packet(1, v9Flowset(0, v9TemplateBody(tid, fields)))); err != nil {
			t.Fatal(err)
		}
	}
	if d.TemplatesCached() != 2 {
		t.Fatalf("cache holds %d templates, want 2", d.TemplatesCached())
	}
	if d.TemplateEvictions() != 1 {
		t.Fatalf("evictions = %d, want 1", d.TemplateEvictions())
	}
	// 300 was evicted; 301 and 302 survive.
	p, err := d.Decode(v9Packet(1, v9Flowset(300, rec)))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Records) != 0 || d.TemplateMisses() != 1 {
		t.Fatalf("evicted template still decodes (records=%d misses=%d)", len(p.Records), d.TemplateMisses())
	}
	for _, tid := range []uint16{301, 302} {
		p, err := d.Decode(v9Packet(1, v9Flowset(tid, rec)))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Records) != 1 {
			t.Fatalf("template %d should have survived eviction", tid)
		}
	}
	// Re-announce 300: decoding resumes.
	if _, err := d.Decode(v9Packet(1, v9Flowset(0, v9TemplateBody(300, fields)))); err != nil {
		t.Fatal(err)
	}
	p, err = d.Decode(v9Packet(1, v9Flowset(300, rec)))
	if err != nil || len(p.Records) != 1 {
		t.Fatalf("re-announced template does not decode (err=%v records=%d)", err, len(p.Records))
	}
}

// TestV9DecoderLRUTouchOnUse verifies use refreshes recency: touching
// the oldest template before inserting a third evicts the middle one.
func TestV9DecoderLRUTouchOnUse(t *testing.T) {
	fields := [][2]uint16{{fieldIPv4Src, 4}}
	rec := binary.BigEndian.AppendUint32(nil, 7)
	d := NewV9Decoder(2)
	for _, tid := range []uint16{300, 301} {
		if _, err := d.Decode(v9Packet(1, v9Flowset(0, v9TemplateBody(tid, fields)))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Decode(v9Packet(1, v9Flowset(300, rec))); err != nil {
		t.Fatal(err) // touches 300
	}
	if _, err := d.Decode(v9Packet(1, v9Flowset(0, v9TemplateBody(302, fields)))); err != nil {
		t.Fatal(err) // evicts 301, the least recently used
	}
	if p, _ := d.Decode(v9Packet(1, v9Flowset(300, rec))); len(p.Records) != 1 {
		t.Fatal("recently used template was evicted")
	}
	if p, _ := d.Decode(v9Packet(1, v9Flowset(301, rec))); len(p.Records) != 0 {
		t.Fatal("least recently used template survived")
	}
}

// TestV9DecoderConcurrentEviction decodes from more exporters than
// the cache holds on several goroutines at once, so that learning,
// use stamps and eviction interleave (the race lane runs it). Every
// packet carries its own template, so each one decodes in full,
// whatever was evicted in between.
func TestV9DecoderConcurrentEviction(t *testing.T) {
	const workers, rounds, sources, cache = 4, 60, 12, 4
	d := NewV9Decoder(cache)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				src := uint32((w + i) % sources)
				recs := []Record{sampleRecord(src), sampleRecord(src + 1)}
				p, err := d.Decode(EncodeV9(&ExportPacket{SourceID: src, Records: recs}))
				if err != nil {
					errs <- err
					return
				}
				if len(p.Records) != 2 || p.Records[1].Key != recs[1].Key || p.Records[1].RouterID != src {
					errs <- fmt.Errorf("source %d: decoded %+v", src, p.Records)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := d.TemplatesCached(); got != cache {
		t.Fatalf("cache holds %d templates, want %d", got, cache)
	}
	if d.TemplateMisses() != 0 {
		t.Fatalf("%d template misses, want 0", d.TemplateMisses())
	}
	if got := d.TemplateEvictions(); got < sources-cache {
		t.Fatalf("%d evictions, want at least %d", got, sources-cache)
	}
}

// TestV9DecoderMalformed pins the error paths: bad template flowsets
// must not poison the cache, and framing errors still reject.
func TestV9DecoderMalformed(t *testing.T) {
	d := NewV9Decoder(0)
	cases := map[string][]byte{
		"short-packet":       {0, 9, 0, 0},
		"reserved-flowset":   v9Packet(1, v9Flowset(5, []byte{1, 2, 3, 4})),
		"template-id-low":    v9Packet(1, v9Flowset(0, v9TemplateBody(100, [][2]uint16{{1, 4}}))),
		"template-no-fields": v9Packet(1, v9Flowset(0, v9TemplateBody(300, nil))),
		"empty-template-set": v9Packet(1, v9Flowset(0, nil)),
		"truncated-flowset":  append(v9Packet(1), 1, 44, 0, 200),
	}
	for name, pkt := range cases {
		if _, err := d.Decode(pkt); err == nil {
			t.Errorf("%s: decode accepted malformed packet", name)
		}
	}
	if d.TemplatesCached() != 0 {
		t.Fatalf("malformed packets left %d templates cached", d.TemplatesCached())
	}
}
