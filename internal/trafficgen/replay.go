package trafficgen

import (
	"fmt"
	"net"
	"time"

	"zkflow/internal/netflow"
)

// This file adds export: Export encodes a router's records as NetFlow
// v9 export packets or sFlow v5 datagrams — the same wire format
// internal/ingest decodes — and Replay sends them to a collector
// socket. Replay is the load source for end-to-end ingest tests and the
// benchmark's ingest-udp workload; zkflowd injects Export's datagrams
// into its collector in process.

// Replay protocols.
const (
	ProtoV9    = "v9"
	ProtoSFlow = "sflow"
	// ProtoMixed alternates per router: even routers export v9, odd
	// routers sFlow — one collector socket, both formats interleaved.
	ProtoMixed = "mixed"
)

// maxV9PerPacket keeps the data flowset length within its u16 field
// (4 + 45·n ≤ 65535) with headroom for the header and template.
const maxV9PerPacket = 1000

// ReplayOptions parameterises a replay run.
type ReplayOptions struct {
	// Epochs is the number of epochs' worth of traffic to send.
	Epochs int
	// RecordsPerRouter is the record count per router per epoch.
	RecordsPerRouter int
	// RecordsPerPacket chunks records into datagrams (default 30,
	// capped so v9 framing stays within its u16 lengths).
	RecordsPerPacket int
	// Protocol is ProtoV9 (default), ProtoSFlow, or ProtoMixed.
	Protocol string
	// Gap, when positive, sleeps between datagrams to shape the send
	// rate. Zero blasts at socket speed.
	Gap time.Duration
}

// ReplayStats reports what a replay sent.
type ReplayStats struct {
	Datagrams int
	Records   int // v9 records + sFlow samples encoded
	Bytes     int64
}

// Replay generates cfg's workload and exports it over UDP to addr.
// Each router's records arrive in packets carrying that router's
// identity (v9 SourceID / sFlow AgentIP), so the collector's sharding
// and per-router commitments see the same topology the in-process
// simulator produces.
func Replay(addr string, cfg Config, opt ReplayOptions) (ReplayStats, error) {
	var stats ReplayStats
	if opt.Epochs <= 0 {
		opt.Epochs = 1
	}
	if opt.RecordsPerRouter <= 0 {
		opt.RecordsPerRouter = 100
	}
	switch opt.Protocol {
	case "":
		opt.Protocol = ProtoV9
	case ProtoV9, ProtoSFlow, ProtoMixed:
	default:
		return stats, fmt.Errorf("trafficgen: unknown replay protocol %q", opt.Protocol)
	}

	conn, err := net.Dial("udp", addr)
	if err != nil {
		return stats, fmt.Errorf("trafficgen: dial %s: %w", addr, err)
	}
	defer conn.Close()

	gens := PerRouter(cfg)
	var seq uint32
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		for router, g := range gens {
			recs := g.Batch(uint32(router), uint64(epoch), opt.RecordsPerRouter)
			proto := opt.Protocol
			if proto == ProtoMixed {
				if router%2 == 0 {
					proto = ProtoV9
				} else {
					proto = ProtoSFlow
				}
			}
			stats.Records += len(recs)
			for _, dgram := range Export(proto, uint32(router), recs, opt.RecordsPerPacket, &seq) {
				if _, err := conn.Write(dgram); err != nil {
					return stats, fmt.Errorf("trafficgen: send: %w", err)
				}
				stats.Datagrams++
				stats.Bytes += int64(len(dgram))
				if opt.Gap > 0 {
					time.Sleep(opt.Gap)
				}
			}
		}
	}
	return stats, nil
}

// Export encodes one router's batch as export datagrams in proto
// (ProtoV9 or ProtoSFlow), perPacket records each (default 30, capped
// so v9 framing stays within its u16 lengths). The datagrams carry the
// router's identity (v9 SourceID / sFlow AgentIP) and are numbered on
// from *seq, which is left at the last one.
func Export(proto string, router uint32, recs []netflow.Record, perPacket int, seq *uint32) [][]byte {
	if perPacket <= 0 {
		perPacket = 30
	}
	perPacket = min(perPacket, maxV9PerPacket)
	var out [][]byte
	for off := 0; off < len(recs); off += perPacket {
		chunk := recs[off:min(off+perPacket, len(recs))]
		*seq++
		if proto == ProtoSFlow {
			out = append(out, netflow.EncodeSFlow(sflowFromRecords(router, *seq, chunk)))
			continue
		}
		out = append(out, netflow.EncodeV9(&netflow.ExportPacket{
			UnixSecs: chunk[0].StartUnix,
			Sequence: *seq,
			SourceID: router,
			Records:  chunk,
		}))
	}
	return out
}

// sflowFromRecords encodes records as one sample each: the sampling
// rate carries the packet count and the frame length the mean packet
// size, so the collector's scaled estimate (rate × frames, rate ×
// frameLen bytes) reconstructs the flow's volume. Flow keys repeat
// across a datagram aggregate on decode — that is sFlow semantics,
// not loss.
func sflowFromRecords(router, seq uint32, recs []netflow.Record) *netflow.SFlowDatagram {
	d := &netflow.SFlowDatagram{
		AgentIP:  router,
		Sequence: seq,
		Uptime:   seq * 1000,
	}
	for i := range recs {
		r := &recs[i]
		frameLen := uint32(64)
		if r.Packets > 0 && r.Bytes/r.Packets > frameLen {
			frameLen = r.Bytes / r.Packets
		}
		rate := r.Packets
		if rate == 0 {
			rate = 1
		}
		d.Samples = append(d.Samples, netflow.SFlowSample{
			SamplingRate: rate,
			Key:          r.Key,
			FrameLen:     frameLen,
		})
	}
	return d
}
