package netflow

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Stateful NetFlow v9 decoding, the one v9 decoder. Real v9 exporters
// send templates periodically and data flowsets in between, with
// layouts of their own choosing. V9Decoder learns template flowsets as
// they arrive, caches them per (source ID, template ID) with LRU
// eviction, and decodes data flowsets generically against whatever
// layout the exporter declared. Fields zkflow does not model are
// skipped; data flowsets whose template has not been seen (yet, or
// anymore after eviction) are dropped and counted, never an error —
// the exporter will re-announce.

// DefaultV9Templates bounds the template cache when NewV9Decoder is
// given a non-positive size.
const DefaultV9Templates = 64

// v9TemplateKey scopes a template to its exporter: v9 template IDs are
// only unique per source, so two routers may use the same ID for
// different layouts.
type v9TemplateKey struct {
	Source uint32
	ID     uint16
}

// v9Template is one cached field layout.
type v9Template struct {
	fields    [][2]uint16 // (type, length) pairs in record order
	recordLen int
	used      uint64 // the decoder's clock at the last learn or lookup
}

// V9Decoder decodes NetFlow v9 export streams with template state.
// Safe for concurrent use.
type V9Decoder struct {
	mu        sync.Mutex
	max       int
	templates map[v9TemplateKey]*v9Template
	clock     uint64 // stamps template uses; the smallest stamp is evicted

	misses    uint64
	evictions uint64
}

// NewV9Decoder creates a decoder caching at most maxTemplates layouts
// (DefaultV9Templates if non-positive).
func NewV9Decoder(maxTemplates int) *V9Decoder {
	if maxTemplates <= 0 {
		maxTemplates = DefaultV9Templates
	}
	return &V9Decoder{
		max:       maxTemplates,
		templates: make(map[v9TemplateKey]*v9Template),
	}
}

// TemplateMisses reports data flowsets skipped for lack of a cached
// template.
func (d *V9Decoder) TemplateMisses() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.misses
}

// TemplateEvictions reports cache evictions.
func (d *V9Decoder) TemplateEvictions() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.evictions
}

// TemplatesCached reports the live cache size.
func (d *V9Decoder) TemplatesCached() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.templates)
}

// Decode parses one v9 export packet, learning any template flowsets
// it carries and decoding data flowsets against the cache.
func (d *V9Decoder) Decode(data []byte) (*ExportPacket, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("netflow: packet of %d bytes too short", len(data))
	}
	if binary.BigEndian.Uint16(data) != V9Version {
		return nil, ErrBadVersion
	}
	p := &ExportPacket{
		SysUptime: binary.BigEndian.Uint32(data[4:]),
		UnixSecs:  binary.BigEndian.Uint32(data[8:]),
		Sequence:  binary.BigEndian.Uint32(data[12:]),
		SourceID:  binary.BigEndian.Uint32(data[16:]),
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	off := 20
	for off+4 <= len(data) {
		id := binary.BigEndian.Uint16(data[off:])
		length := int(binary.BigEndian.Uint16(data[off+2:]))
		if length < 4 || off+length > len(data) {
			return nil, fmt.Errorf("netflow: flowset at %d has bad length %d", off, length)
		}
		body := data[off+4 : off+length]
		switch {
		case id == 0:
			if err := d.learnLocked(p.SourceID, body); err != nil {
				return nil, err
			}
		case id == 1:
			// Options template flowset: zkflow has no option data to
			// model; skip it rather than reject the exporter.
		case id < 256:
			return nil, fmt.Errorf("%w: reserved flowset id %d", ErrBadTemplate, id)
		default:
			tpl := d.lookupLocked(v9TemplateKey{Source: p.SourceID, ID: id})
			if tpl == nil {
				d.misses++
				break
			}
			for len(body) >= tpl.recordLen {
				r := tpl.decodeRecord(body)
				r.RouterID = p.SourceID
				p.Records = append(p.Records, r)
				body = body[tpl.recordLen:]
			}
		}
		off += length
	}
	if off != len(data) {
		return nil, fmt.Errorf("netflow: %d trailing bytes", len(data)-off)
	}
	return p, nil
}

// learnLocked parses a template flowset body (one or more template
// definitions) into the cache.
func (d *V9Decoder) learnLocked(source uint32, body []byte) error {
	learned := 0
	for len(body) >= 4 {
		tid := binary.BigEndian.Uint16(body)
		n := int(binary.BigEndian.Uint16(body[2:]))
		if tid < 256 || n == 0 || len(body) < 4+4*n {
			return fmt.Errorf("%w: template %d with %d fields in %d bytes", ErrBadTemplate, tid, n, len(body))
		}
		tpl := &v9Template{fields: make([][2]uint16, n)}
		for i := 0; i < n; i++ {
			ft := binary.BigEndian.Uint16(body[4+4*i:])
			fl := binary.BigEndian.Uint16(body[6+4*i:])
			tpl.fields[i] = [2]uint16{ft, fl}
			tpl.recordLen += int(fl)
		}
		if tpl.recordLen == 0 {
			return fmt.Errorf("%w: template %d describes empty records", ErrBadTemplate, tid)
		}
		d.insertLocked(v9TemplateKey{Source: source, ID: tid}, tpl)
		learned++
		body = body[4+4*n:]
	}
	// Up to 3 bytes of flowset padding may remain, but a flowset that
	// carried no template at all is malformed.
	if learned == 0 || len(body) >= 4 {
		return fmt.Errorf("%w: %d leftover template bytes", ErrBadTemplate, len(body))
	}
	return nil
}

// lookupLocked returns the cached template and stamps it as the most
// recently used.
func (d *V9Decoder) lookupLocked(key v9TemplateKey) *v9Template {
	tpl := d.templates[key]
	if tpl != nil {
		d.clock++
		tpl.used = d.clock
	}
	return tpl
}

// insertLocked caches tpl as the most recently used template — a
// refresh when the exporter re-announces key — and evicts the least
// recently used one when the cache passes max.
func (d *V9Decoder) insertLocked(key v9TemplateKey, tpl *v9Template) {
	d.clock++
	tpl.used = d.clock
	d.templates[key] = tpl
	if len(d.templates) <= d.max {
		return
	}
	var oldest v9TemplateKey
	stamp := d.clock
	for k, t := range d.templates {
		if t.used < stamp {
			oldest, stamp = k, t.used
		}
	}
	delete(d.templates, oldest)
	d.evictions++
}

// decodeRecord maps one record's worth of bytes through the template.
// Known field types land in Record; everything else is skipped by
// length. Values longer than 4 bytes keep their least-significant 32
// bits (the v9 convention for counter truncation).
func (t *v9Template) decodeRecord(b []byte) Record {
	var r Record
	off := 0
	for _, f := range t.fields {
		fl := int(f[1])
		var v uint32
		switch {
		case fl == 1:
			v = uint32(b[off])
		case fl == 2:
			v = uint32(binary.BigEndian.Uint16(b[off:]))
		case fl == 4:
			v = binary.BigEndian.Uint32(b[off:])
		case fl > 4:
			v = binary.BigEndian.Uint32(b[off+fl-4:])
		}
		switch f[0] {
		case fieldIPv4Src:
			r.Key.SrcIP = v
		case fieldIPv4Dst:
			r.Key.DstIP = v
		case fieldL4Src:
			r.Key.SrcPort = uint16(v)
		case fieldL4Dst:
			r.Key.DstPort = uint16(v)
		case fieldProto:
			r.Key.Proto = uint8(v)
		case fieldPackets:
			r.Packets = v
		case fieldBytes:
			r.Bytes = v
		case fieldDropped:
			r.Dropped = v
		case fieldHopCount:
			r.HopCount = v
		case fieldRTT:
			r.RTTMicros = v
		case fieldJitter:
			r.JitterMicros = v
		case fieldStart:
			r.StartUnix = v
		case fieldEnd:
			r.EndUnix = v
		}
		off += fl
	}
	return r
}
