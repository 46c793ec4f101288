package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements a simplified NetFlow v9 export encoding
// (RFC 3954 flavour): an export packet carries a header, an optional
// template flowset describing field layout, and data flowsets whose
// records follow the template. The encoder emits only the single
// template needed for zkflow's Record, but the framing (flowset IDs,
// lengths, padding) follows the specification so standard tooling
// recognises the stream shape. Decoding is V9Decoder's
// (v9template.go), which reads any template layout.

// V9Version is the NetFlow export version.
const V9Version = 9

// TemplateID identifies zkflow's record template (must be >= 256).
const TemplateID = 300

// V9 field type numbers (subset of the standard registry, plus
// enterprise-range types for the zkflow-specific counters).
const (
	fieldIPv4Src  = 8
	fieldIPv4Dst  = 12
	fieldL4Src    = 7
	fieldL4Dst    = 11
	fieldProto    = 4
	fieldPackets  = 2
	fieldBytes    = 1
	fieldDropped  = 133 // DROPPED_PACKETS_TOTAL
	fieldHopCount = 1001
	fieldRTT      = 1002
	fieldJitter   = 1003
	fieldStart    = 22 // FIRST_SWITCHED
	fieldEnd      = 21 // LAST_SWITCHED
)

// templateFields lists (type, length) pairs in record order.
var templateFields = [][2]uint16{
	{fieldIPv4Src, 4}, {fieldIPv4Dst, 4},
	{fieldL4Src, 2}, {fieldL4Dst, 2}, {fieldProto, 1},
	{fieldPackets, 4}, {fieldBytes, 4}, {fieldDropped, 4},
	{fieldHopCount, 4}, {fieldRTT, 4}, {fieldJitter, 4},
	{fieldStart, 4}, {fieldEnd, 4},
}

// v9RecordLen is the per-record payload length under the template.
const v9RecordLen = 4 + 4 + 2 + 2 + 1 + 4*8

// ExportPacket is a decoded v9 export packet.
type ExportPacket struct {
	SysUptime uint32
	UnixSecs  uint32
	Sequence  uint32
	SourceID  uint32 // the exporting router
	Records   []Record
}

// EncodeV9 serialises records as a v9 export packet containing the
// template flowset followed by one data flowset.
func EncodeV9(p *ExportPacket) []byte {
	var out []byte
	u16 := func(v uint16) { out = binary.BigEndian.AppendUint16(out, v) }
	u32 := func(v uint32) { out = binary.BigEndian.AppendUint32(out, v) }
	u8 := func(v uint8) { out = append(out, v) }

	// Header: version, count (flowset records), uptime, secs, seq, source.
	u16(V9Version)
	u16(uint16(1 + len(p.Records))) // template counts as one record
	u32(p.SysUptime)
	u32(p.UnixSecs)
	u32(p.Sequence)
	u32(p.SourceID)

	// Template flowset (ID 0).
	u16(0)
	u16(uint16(8 + 4*len(templateFields))) // flowset length
	u16(TemplateID)
	u16(uint16(len(templateFields)))
	for _, f := range templateFields {
		u16(f[0])
		u16(f[1])
	}

	// Data flowset.
	dataLen := 4 + v9RecordLen*len(p.Records)
	pad := (4 - dataLen%4) % 4
	u16(TemplateID)
	u16(uint16(dataLen + pad))
	for i := range p.Records {
		r := &p.Records[i]
		u32(r.Key.SrcIP)
		u32(r.Key.DstIP)
		u16(r.Key.SrcPort)
		u16(r.Key.DstPort)
		u8(r.Key.Proto)
		u32(r.Packets)
		u32(r.Bytes)
		u32(r.Dropped)
		u32(r.HopCount)
		u32(r.RTTMicros)
		u32(r.JitterMicros)
		u32(r.StartUnix)
		u32(r.EndUnix)
	}
	for i := 0; i < pad; i++ {
		u8(0)
	}
	return out
}

// Errors returned by DecodeV9.
var (
	ErrBadVersion  = errors.New("netflow: not a v9 packet")
	ErrBadTemplate = errors.New("netflow: unknown or malformed template")
)

// DecodeV9 parses one self-contained export packet, such as one
// produced by EncodeV9: every data flowset's template must ride in the
// same packet. It decodes with a fresh V9Decoder, so it accepts any
// template layout the exporter declares and skips options templates;
// a data flowset without its template is ErrBadTemplate. Records
// inherit the packet's SourceID as their RouterID.
func DecodeV9(data []byte) (*ExportPacket, error) {
	d := NewV9Decoder(0)
	p, err := d.Decode(data)
	if err != nil {
		return nil, err
	}
	if d.TemplateMisses() > 0 {
		return nil, fmt.Errorf("%w: data flowset without its template", ErrBadTemplate)
	}
	return p, nil
}
