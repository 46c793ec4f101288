// Package netflow models NetFlow telemetry records — the RLogs of the
// paper — and their encodings. A record's one internal encoding is the
// uint32 words zkVM guests consume (Words, BatchWords); a router's
// commitment hashes those words packed little-endian (EncodeBatch). The
// export formats a collector receives, NetFlow v9 (v9.go,
// v9template.go) and sFlow (sflow.go), have their own encoders and
// decoders.
package netflow

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// FlowKey identifies a flow by its 5-tuple.
type FlowKey struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// KeyWords is the number of uint32 words in a flow key's guest
// encoding.
const KeyWords = 4

// Words returns the guest encoding of the key: src, dst,
// (srcPort<<16 | dstPort), proto.
func (k FlowKey) Words() [KeyWords]uint32 {
	return [KeyWords]uint32{
		k.SrcIP,
		k.DstIP,
		uint32(k.SrcPort)<<16 | uint32(k.DstPort),
		uint32(k.Proto),
	}
}

// KeyFromWords inverts Words.
func KeyFromWords(w [KeyWords]uint32) FlowKey {
	return FlowKey{
		SrcIP:   w[0],
		DstIP:   w[1],
		SrcPort: uint16(w[2] >> 16),
		DstPort: uint16(w[2]),
		Proto:   uint8(w[3]),
	}
}

// Less orders keys lexicographically over the word encoding; the
// aggregation guest requires its inputs sorted in this order.
func (k FlowKey) Less(o FlowKey) bool {
	a, b := k.Words(), o.Words()
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// String renders the key as "src:port -> dst:port/proto".
func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d -> %s:%d/%d",
		ipString(k.SrcIP), k.SrcPort, ipString(k.DstIP), k.DstPort, k.Proto)
}

func ipString(ip uint32) string {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], ip)
	return netip.AddrFrom4(b).String()
}

// ParseIPv4 converts a dotted-quad string to the uint32 form.
func ParseIPv4(s string) (uint32, error) {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return 0, err
	}
	if !a.Is4() {
		return 0, fmt.Errorf("netflow: %q is not IPv4", s)
	}
	b := a.As4()
	return binary.BigEndian.Uint32(b[:]), nil
}

// MustParseIPv4 is ParseIPv4 that panics on error (for literals).
func MustParseIPv4(s string) uint32 {
	v, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Record is one NetFlow telemetry record as emitted by a router: the
// 5-tuple plus the per-flow counters the paper's queries aggregate
// (packets, bytes, drops, hop count, RTT, jitter) and the observation
// window.
type Record struct {
	Key          FlowKey
	Packets      uint32
	Bytes        uint32
	Dropped      uint32 // packets lost at this observation point
	HopCount     uint32
	RTTMicros    uint32
	JitterMicros uint32
	StartUnix    uint32 // start of the observation window (Unix seconds)
	EndUnix      uint32
	RouterID     uint32
}

// RecordWords is the guest word count of one record.
const RecordWords = 13

// Words returns the guest encoding: key words then counters.
func (r *Record) Words() [RecordWords]uint32 {
	k := r.Key.Words()
	return [RecordWords]uint32{
		k[0], k[1], k[2], k[3],
		r.Packets, r.Bytes, r.Dropped, r.HopCount,
		r.RTTMicros, r.JitterMicros,
		r.StartUnix, r.EndUnix, r.RouterID,
	}
}

// EncodeBatch packs each record's Words little-endian into one buffer.
// These are the bytes the guest's SysHash absorbs when it recomputes a
// router's commitment, so they are the one commitment preimage.
func EncodeBatch(records []Record) []byte {
	out := make([]byte, 0, 4*RecordWords*len(records))
	for i := range records {
		for _, w := range records[i].Words() {
			out = binary.LittleEndian.AppendUint32(out, w)
		}
	}
	return out
}

// BatchWords flattens records into the guest word stream.
func BatchWords(records []Record) []uint32 {
	out := make([]uint32, 0, len(records)*RecordWords)
	for i := range records {
		w := records[i].Words()
		out = append(out, w[:]...)
	}
	return out
}

// Validate performs basic sanity checks a collector would apply.
func (r *Record) Validate() error {
	if r.EndUnix < r.StartUnix {
		return fmt.Errorf("netflow: record window ends (%d) before it starts (%d)", r.EndUnix, r.StartUnix)
	}
	if r.Dropped > r.Packets {
		return fmt.Errorf("netflow: %d dropped exceeds %d packets", r.Dropped, r.Packets)
	}
	return nil
}
