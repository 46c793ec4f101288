package ingest

import (
	"encoding/binary"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/obs"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
)

// newPipeline builds an unstarted pipeline over fresh state, with
// cleanup registered.
func newPipeline(t *testing.T, cfg Config) (*Pipeline, *store.Store, *ledger.Ledger) {
	t.Helper()
	st := store.Open(0)
	lg := ledger.New()
	p, err := New(st, lg, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p, st, lg
}

// checkAccounting asserts the zero-silent-loss invariant after the
// pipeline has been drained.
func checkAccounting(t *testing.T, p *Pipeline) {
	t.Helper()
	s := p.Stats()
	if u := s.Unaccounted(); u != 0 {
		t.Fatalf("unaccounted records: %d (stats %+v)", u, s)
	}
}

// waitFor polls until cond returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", d)
}

func v9Datagram(router uint32, recs []netflow.Record) []byte {
	return netflow.EncodeV9(&netflow.ExportPacket{SourceID: router, Records: recs})
}

func genRecords(router uint32, n int) []netflow.Record {
	g := trafficgen.New(trafficgen.Config{Seed: int64(router) + 1, NumFlows: 64})
	return g.Batch(router, 0, n)
}

func TestUDPEndToEndV9(t *testing.T) {
	p, st, lg := newPipeline(t, Config{Addr: "127.0.0.1:0", Shards: 4})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}

	cfg := trafficgen.Config{Seed: 7, NumFlows: 256, Routers: 4}
	sent, err := trafficgen.Replay(p.Addr().String(), cfg, trafficgen.ReplayOptions{
		Epochs:           1,
		RecordsPerRouter: 50,
		RecordsPerPacket: 20,
		Protocol:         trafficgen.ProtoV9,
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if sent.Records != 200 || sent.Datagrams != 12 {
		t.Fatalf("unexpected replay stats: %+v", sent)
	}

	waitFor(t, 5*time.Second, func() bool {
		return p.Stats().Received == uint64(sent.Records)
	})
	seal := p.Seal()
	if seal.Records != sent.Records || seal.Routers != 4 || seal.Dropped != 0 {
		t.Fatalf("seal = %+v, want %d records over 4 routers", seal, sent.Records)
	}
	if st.Len() != sent.Records {
		t.Fatalf("store has %d records, want %d", st.Len(), sent.Records)
	}
	if got := len(lg.Entries()); got != 4 {
		t.Fatalf("ledger has %d commitments, want 4", got)
	}
	// The ledger commitment must match a recomputation over the stored
	// segment — the ingest path commits exactly what it stored.
	recs, err := st.Epoch(seal.Epoch, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := lg.Lookup(0, seal.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash != ledger.CommitRecords(recs) {
		t.Fatal("ledger commitment does not match stored segment")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, p)
}

func TestUDPMixedProtocols(t *testing.T) {
	p, st, lg := newPipeline(t, Config{Addr: "127.0.0.1:0", Shards: 3})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	cfg := trafficgen.Config{Seed: 11, NumFlows: 512, Routers: 4}
	sent, err := trafficgen.Replay(p.Addr().String(), cfg, trafficgen.ReplayOptions{
		Epochs:           1,
		RecordsPerRouter: 40,
		RecordsPerPacket: 16,
		Protocol:         trafficgen.ProtoMixed,
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	// sFlow aggregates same-key samples per datagram, so the decoded
	// record count is data-dependent; datagram counts match exactly.
	waitFor(t, 5*time.Second, func() bool {
		return p.Stats().Datagrams == uint64(sent.Datagrams)
	})
	seal := p.Seal()
	if seal.Routers != 4 || seal.Dropped != 0 {
		t.Fatalf("seal = %+v, want 4 routers, 0 dropped", seal)
	}
	if st.Len() != seal.Records {
		t.Fatalf("store has %d records, seal reported %d", st.Len(), seal.Records)
	}
	if got := len(lg.Entries()); got != 4 {
		t.Fatalf("ledger has %d commitments, want 4", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, p)
}

func TestInjectSFlowAggregates(t *testing.T) {
	p, st, _ := newPipeline(t, Config{Shards: 2})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	key := netflow.FlowKey{SrcIP: 0x0a000001, DstIP: 0x08080808, SrcPort: 1234, DstPort: 443, Proto: 6}
	d := &netflow.SFlowDatagram{
		AgentIP: 9,
		Samples: []netflow.SFlowSample{
			{SamplingRate: 100, Key: key, FrameLen: 600},
			{SamplingRate: 100, Key: key, FrameLen: 600},
		},
	}
	p.Inject(netflow.EncodeSFlow(d))
	waitFor(t, time.Second, func() bool { return p.Stats().Received == 1 })
	seal := p.Seal()
	if seal.Records != 1 || seal.Routers != 1 {
		t.Fatalf("seal = %+v, want 1 record from 1 router", seal)
	}
	recs, err := st.Epoch(seal.Epoch, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Packets != 200 || recs[0].Bytes != 2*100*600 {
		t.Fatalf("aggregated record wrong: %+v", recs)
	}
}

func TestGarbageDatagrams(t *testing.T) {
	p, _, _ := newPipeline(t, Config{Shards: 2})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	valid := v9Datagram(1, genRecords(1, 3))
	cases := [][]byte{
		nil,
		{},
		{0x00},
		{0x00, 0x09},         // version in the wrong half
		valid[:1],            // truncated below version field
		valid[:10],           // truncated header
		valid[:len(valid)-7], // truncated mid-record
		append([]byte{0x00, 0x09}, make([]byte, 10)...), // v9 magic, short header
		append([]byte{0x00, 0x00, 0x00, 0x05}, 0xff),    // sFlow magic, junk body
		[]byte(strings.Repeat("garbage!", 100)),
		[]byte(strings.Repeat("0", 52)), // ASCII zeros: neither v9 nor sFlow
	}
	for i, dg := range cases {
		p.Inject(dg)
		s := p.Stats()
		if s.BadDatagrams != uint64(i+1) {
			t.Fatalf("case %d: bad=%d, want %d (stats %+v)", i, s.BadDatagrams, i+1, s)
		}
		if s.Received != 0 {
			t.Fatalf("case %d: garbage produced %d records", i, s.Received)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, p)
}

func TestQueueOverflowDrops(t *testing.T) {
	// Not started: the shard queue has no consumer, so its capacity is
	// the exact overflow point — deterministic backpressure.
	p, _, _ := newPipeline(t, Config{Shards: 1, QueueDepth: 2})
	for i := 0; i < 5; i++ {
		p.Inject(v9Datagram(1, genRecords(1, 3)))
	}
	s := p.Stats()
	if s.Received != 15 || s.DroppedQueue != 9 {
		t.Fatalf("received=%d droppedQueue=%d, want 15/9", s.Received, s.DroppedQueue)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // final seal flushes the 2 queued batches
		t.Fatal(err)
	}
	s = p.Stats()
	if s.Committed != 6 {
		t.Fatalf("committed=%d, want 6", s.Committed)
	}
	checkAccounting(t, p)
}

func TestEpochBoundaryBatching(t *testing.T) {
	p, st, lg := newPipeline(t, Config{Shards: 2})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Inject(v9Datagram(1, genRecords(1, 4)))
	p.Inject(v9Datagram(2, genRecords(2, 6)))
	if s := p.Seal(); s.Epoch != 0 || s.Records != 10 || s.Routers != 2 {
		t.Fatalf("epoch 0 seal = %+v", s)
	}
	p.Inject(v9Datagram(1, genRecords(1, 5)))
	if s := p.Seal(); s.Epoch != 1 || s.Records != 5 || s.Routers != 1 {
		t.Fatalf("epoch 1 seal = %+v", s)
	}
	if s := p.Seal(); s.Epoch != 2 || s.Records != 0 {
		t.Fatalf("empty epoch seal = %+v", s)
	}
	for _, want := range []struct {
		epoch  uint64
		router uint32
		n      int
	}{{0, 1, 4}, {0, 2, 6}, {1, 1, 5}, {1, 2, 0}} {
		recs, err := st.Epoch(want.epoch, want.router)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != want.n {
			t.Fatalf("epoch %d router %d: %d records, want %d", want.epoch, want.router, len(recs), want.n)
		}
	}
	// Three commitments (1/e0, 2/e0, 1/e1); the empty epoch publishes
	// nothing.
	if got := len(lg.Entries()); got != 3 {
		t.Fatalf("ledger has %d commitments, want 3", got)
	}
}

func TestEvictedEpochCountsDrops(t *testing.T) {
	// A flush to an epoch the store has already evicted (the pipeline
	// is at epoch 0, the store's newest is 100) lands outside the
	// retention window: the store refuses the segment (see
	// store.Append) and ingest accounts the refusal instead of losing
	// the records silently.
	st := store.Open(4)
	if _, err := st.Append(100, 1, genRecords(1, 1)); err != nil {
		t.Fatal(err)
	}
	lg := ledger.New()
	p, err := New(st, lg, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Inject(v9Datagram(1, genRecords(1, 8)))
	waitFor(t, time.Second, func() bool { return p.Stats().Received == 8 })
	seal := p.Seal()
	if seal.Dropped != 8 || seal.Records != 0 {
		t.Fatalf("seal = %+v, want 8 dropped, 0 committed", seal)
	}
	s := p.Stats()
	if s.DroppedEvict != 8 {
		t.Fatalf("droppedEvict=%d, want 8", s.DroppedEvict)
	}
	if len(lg.Entries()) != 0 {
		t.Fatal("evicted segment must not publish a commitment")
	}
	checkAccounting(t, p)
}

func TestInvalidRecordsFiltered(t *testing.T) {
	p, _, _ := newPipeline(t, Config{Shards: 1})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	recs := genRecords(3, 2)
	recs[1].Dropped = recs[1].Packets + 1 // violates Dropped <= Packets
	p.Inject(v9Datagram(3, recs))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Received != 2 || s.DroppedBad != 1 || s.Committed != 1 {
		t.Fatalf("stats %+v, want received=2 invalid=1 committed=1", s)
	}
	checkAccounting(t, p)
}

func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	p, _, _ := newPipeline(t, Config{Shards: 2, Metrics: reg})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Inject(v9Datagram(1, genRecords(1, 3)))
	waitFor(t, time.Second, func() bool { return reg.Counter("ingest.records_received").Value() == 3 })
	p.Seal()
	if reg.Counter("ingest.records_committed").Value() != 3 {
		t.Fatal("committed counter not exported through the shared registry")
	}
	if reg.Counter("ingest.epochs_sealed").Value() != 1 {
		t.Fatal("epochs_sealed counter not exported")
	}
}

func TestConcurrentCollectorsAndSealer(t *testing.T) {
	// Race-lane test: concurrent injectors (standing in for UDP reader
	// goroutines) against a sealer on a 3 ms clock sealing underneath
	// them, kept running across Close so Seal races Close too.
	p, st, lg := newPipeline(t, Config{Shards: 4, QueueDepth: 64})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	stop, sealerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sealerDone)
		tick := time.NewTicker(3 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				p.Seal()
			case <-stop:
				return
			}
		}
	}()
	const injectors = 4
	const packets = 50
	var wg sync.WaitGroup
	for i := 0; i < injectors; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for n := 0; n < packets; n++ {
				p.Inject(v9Datagram(uint32(id), genRecords(uint32(id), 2)))
			}
		}(i)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-sealerDone
	checkAccounting(t, p)
	s := p.Stats()
	if s.Received != injectors*packets*2 {
		t.Fatalf("received=%d, want %d", s.Received, injectors*packets*2)
	}
	if uint64(st.Len()) != s.Committed {
		t.Fatalf("store holds %d records, committed counter says %d", st.Len(), s.Committed)
	}
	// Every (router, epoch) store segment must have exactly one ledger
	// commitment — sharding by router keeps publishes single-writer.
	for _, epoch := range st.Epochs() {
		routers, err := st.Routers(epoch)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range routers {
			if _, err := lg.Lookup(r, epoch); err != nil {
				t.Fatalf("router %d epoch %d stored but not committed: %v", r, epoch, err)
			}
		}
	}
}

func TestLifecycleErrors(t *testing.T) {
	p, _, _ := newPipeline(t, Config{Shards: 1})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		t.Fatal("second Start must fail")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		t.Fatal("Start after Close must fail")
	}
	if _, err := New(nil, nil, Config{Addr: "256.0.0.1:bad"}); err == nil {
		t.Fatal("bad listen address must fail at New")
	}
}

func TestSealAfterCloseReturns(t *testing.T) {
	// No newPipeline: its cleanup Close would wait on a hung Seal.
	p, err := New(store.Open(0), ledger.New(), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Inject(v9Datagram(1, genRecords(1, 3)))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan Seal, 1)
	go func() { done <- p.Seal() }()
	select {
	case s := <-done:
		// The final seal committed epoch 0; nothing is sealed after it.
		if s.Epoch != 1 || s.Records != 0 {
			t.Fatalf("Seal after Close = %+v, want epoch 1 and no records", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Seal after Close did not return")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, p)
}

// TestCloseUnstartedCommitsInjected: a pipeline closed without ever
// starting still commits what was injected into it in its final seal.
func TestCloseUnstartedCommitsInjected(t *testing.T) {
	p, st, lg := newPipeline(t, Config{Shards: 2})
	p.Inject(v9Datagram(1, genRecords(1, 3)))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Received != 3 || s.Committed != 3 {
		t.Fatalf("stats %+v, want 3 received and 3 committed", s)
	}
	if st.Len() != 3 || len(lg.Entries()) != 1 {
		t.Fatalf("store has %d records and ledger %d commitments, want 3 and 1", st.Len(), len(lg.Entries()))
	}
	checkAccounting(t, p)
	if err := p.Start(); err == nil {
		t.Fatal("Start after Close must fail")
	}
}

// TestInjectRacingCloseIsAccounted: injectors keep running while Close
// drains the pipeline. Each datagram either queues ahead of the final
// seal and commits, or is counted as a queue drop — never neither.
func TestInjectRacingCloseIsAccounted(t *testing.T) {
	const trials, injectors = 2000, 4
	var dgrams [injectors][]byte
	for i := range dgrams {
		dgrams[i] = v9Datagram(uint32(i), genRecords(uint32(i), 3))
	}
	for trial := 0; trial < trials; trial++ {
		p, err := New(store.Open(0), ledger.New(), Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := range dgrams {
			wg.Add(1)
			go func(dgram []byte) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						p.Inject(dgram)
					}
				}
			}(dgrams[i])
		}
		for p.Stats().Received == 0 {
			runtime.Gosched()
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		if s := p.Stats(); s.Unaccounted() != 0 {
			t.Fatalf("trial %d: %d records unaccounted (stats %+v)", trial, s.Unaccounted(), s)
		}
	}
}

func TestInjectAfterCloseIsCounted(t *testing.T) {
	p, _, _ := newPipeline(t, Config{Shards: 1})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p.Inject(v9Datagram(1, genRecords(1, 3)))
	s := p.Stats()
	if s.Received != 3 || s.DroppedQueue != 3 {
		t.Fatalf("stats %+v, want 3 received and 3 dropped at the queue", s)
	}
	checkAccounting(t, p)
}

func TestStatsDroppedSums(t *testing.T) {
	s := Stats{Received: 10, Committed: 4, DroppedQueue: 1, DroppedEvict: 2, DroppedBad: 1, DroppedLedgr: 2}
	if s.Dropped() != 6 {
		t.Fatalf("Dropped()=%d, want 6", s.Dropped())
	}
	if s.Unaccounted() != 0 {
		t.Fatalf("Unaccounted()=%d, want 0", s.Unaccounted())
	}
}

// TestLedgerRefusalCountsDrops forces a duplicate (router, epoch)
// publish by pre-publishing the commitment, then verifies the ingest
// path accounts the refused segment as dropped.
func TestLedgerRefusalCountsDrops(t *testing.T) {
	p, st, lg := newPipeline(t, Config{Shards: 1})
	if _, err := lg.Publish(7, 0, ledger.CommitRecords(nil)); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Inject(v9Datagram(7, genRecords(7, 3)))
	waitFor(t, time.Second, func() bool { return p.Stats().Received == 3 })
	seal := p.Seal()
	if seal.Dropped != 3 {
		t.Fatalf("seal = %+v, want 3 dropped on ledger refusal", seal)
	}
	if p.Stats().DroppedLedgr != 3 {
		t.Fatalf("droppedLedger=%d, want 3", p.Stats().DroppedLedgr)
	}
	// The store did append before the refusal: ingest guarantees no
	// commitment without records, not the reverse.
	if st.Len() != 3 {
		t.Fatalf("store len=%d, want 3", st.Len())
	}
	checkAccounting(t, p)
}

func TestReplayRejectsUnknownProtocol(t *testing.T) {
	_, err := trafficgen.Replay("127.0.0.1:1", trafficgen.Config{}, trafficgen.ReplayOptions{Protocol: "ipfix"})
	if err == nil || !strings.Contains(err.Error(), "unknown replay protocol") {
		t.Fatalf("err = %v, want unknown-protocol error", err)
	}
}

// TestInjectV9TemplateAcrossPackets exercises the stateful v9 decode
// path: a template announced in one datagram decodes data flowsets in
// later template-less datagrams, and data arriving before any template
// is counted as a miss rather than an error.
func TestInjectV9TemplateAcrossPackets(t *testing.T) {
	reg := obs.NewRegistry()
	p, st, _ := newPipeline(t, Config{Shards: 2, Metrics: reg})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	full := v9Datagram(7, genRecords(7, 3)) // template + data in one packet

	// Strip the template flowset out of a second packet: header (20
	// bytes), template flowset, data flowset. The data-only packet must
	// still decode once the template is cached.
	tplLen := int(binary.BigEndian.Uint16(full[22:]))
	dataOnly := append(append([]byte(nil), full[:20]...), full[20+tplLen:]...)

	// Data before any template: skipped, not an error.
	p.Inject(dataOnly)
	waitFor(t, time.Second, func() bool {
		return reg.Gauge("ingest.v9_template_misses").Value() == 1
	})
	if got := p.Stats().Received; got != 0 {
		t.Fatalf("%d records decoded without a template", got)
	}

	p.Inject(full) // caches the template
	waitFor(t, time.Second, func() bool { return p.Stats().Received == 3 })
	p.Inject(dataOnly) // now decodes via the cache
	waitFor(t, time.Second, func() bool { return p.Stats().Received == 6 })

	seal := p.Seal()
	if seal.Records == 0 {
		t.Fatalf("seal = %+v, want committed records", seal)
	}
	if _, err := st.Epoch(seal.Epoch, 7); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, p)
}

// TestSingleSocketDefault: the collector binds one socket, read by two
// goroutines, and traffic from several sender sockets lands on it intact
// (received == committed, zero silent loss).
func TestSingleSocketDefault(t *testing.T) {
	p, st, _ := newPipeline(t, Config{Addr: "127.0.0.1:0", Shards: 4})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	cfg := trafficgen.Config{Seed: 21, NumFlows: 256, Routers: 4}
	total := 0
	for sender := 0; sender < 4; sender++ {
		sent, err := trafficgen.Replay(p.Addr().String(), cfg, trafficgen.ReplayOptions{
			Epochs:           1,
			RecordsPerRouter: 25,
			RecordsPerPacket: 5,
			Protocol:         trafficgen.ProtoV9,
		})
		if err != nil {
			t.Fatalf("Replay %d: %v", sender, err)
		}
		total += sent.Records
	}
	waitFor(t, 5*time.Second, func() bool {
		return p.Stats().Received == uint64(total)
	})
	seal := p.Seal()
	if seal.Records != total || seal.Dropped != 0 {
		t.Fatalf("seal = %+v, want %d records, 0 dropped", seal, total)
	}
	if st.Len() != total {
		t.Fatalf("store has %d records, want %d", st.Len(), total)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, p)
}
