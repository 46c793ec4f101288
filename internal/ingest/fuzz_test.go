package ingest

import (
	"testing"

	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/store"
)

// FuzzDatagram drives arbitrary bytes through the complete ingest
// path — classify, decode, validate, shard, seal — and checks the
// accounting invariant: whatever the datagram decoded to, every
// record is either committed or counted against a drop cause. It is
// the fuzzer of the collector's decoders too: every datagram reaches
// netflow's NetFlow v9 or sFlow decoder through this path.
func FuzzDatagram(f *testing.F) {
	g := func(router uint32, n int) []netflow.Record {
		recs := make([]netflow.Record, n)
		for i := range recs {
			recs[i] = netflow.Record{
				Key:       netflow.FlowKey{SrcIP: 0x0a000001 + uint32(i), DstIP: 0x08080808, SrcPort: 1000, DstPort: 443, Proto: 6},
				Packets:   uint32(i + 1),
				Bytes:     uint32((i + 1) * 900),
				StartUnix: 1700000000,
				EndUnix:   1700000005,
				RouterID:  router,
			}
		}
		return recs
	}
	f.Add(netflow.EncodeV9(&netflow.ExportPacket{SourceID: 3, Records: g(3, 4)}))
	f.Add(netflow.EncodeSFlow(&netflow.SFlowDatagram{
		AgentIP: 5,
		Samples: []netflow.SFlowSample{{SamplingRate: 64, Key: g(5, 1)[0].Key, FrameLen: 800}},
	}))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x09})
	f.Add([]byte{0x00, 0x00, 0x00, 0x05})
	f.Add([]byte("not telemetry at all"))

	f.Fuzz(func(t *testing.T, dgram []byte) {
		p, err := New(store.Open(0), ledger.New(), Config{Shards: 2, QueueDepth: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		p.Inject(dgram)
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		s := p.Stats()
		if s.Unaccounted() != 0 {
			t.Fatalf("unaccounted records after close: %d (%+v)", s.Unaccounted(), s)
		}
		if s.Datagrams != 1 {
			t.Fatalf("datagrams=%d, want 1", s.Datagrams)
		}
	})
}
