package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zkflow/internal/ingest"
	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
)

// udpParams sizes the ingest-udp workload.
type udpParams struct {
	routers   int
	flows     int
	bursts    int           // replay epochs captured: each is burstLen datagrams per router
	burstLen  int           // consecutive datagrams of one router
	window    int           // datagrams the sender may run ahead of the collector
	sealEvery time.Duration // epoch tick
	warm      time.Duration // untimed traffic before the measured window
}

func udpSizes(toy bool) udpParams {
	if toy {
		return udpParams{routers: 4, flows: 64, bursts: 4, burstLen: 2, window: 16, sealEvery: 50 * time.Millisecond, warm: 20 * time.Millisecond}
	}
	// 48 datagrams of ~1.4 KB stay far below the socket's default
	// receive buffer (rmem_default 212992), so the kernel never drops
	// and the collector, not the sender, is the bottleneck.
	return udpParams{routers: 8, flows: 4096, bursts: 32, burstLen: 4, window: 48, sealEvery: 250 * time.Millisecond, warm: 300 * time.Millisecond}
}

// isSFlow applies ingest.Pipeline.Inject's own dispatch rule.
func isSFlow(d []byte) bool {
	return len(d) >= 4 && binary.BigEndian.Uint32(d) == netflow.SFlowVersion
}

// decodeRecords decodes one datagram the way the collector does and
// returns the records it carries that the collector will accept.
func decodeRecords(dec *netflow.V9Decoder, d []byte) (router uint32, recs []netflow.Record, err error) {
	if isSFlow(d) {
		sd, err := netflow.DecodeSFlow(d)
		if err != nil {
			return 0, nil, err
		}
		router, recs = sd.AgentIP, netflow.SFlowToRecords(sd, sd.AgentIP, 1, 1)
	} else {
		pkt, err := dec.Decode(d)
		if err != nil {
			return 0, nil, err
		}
		router, recs = pkt.SourceID, pkt.Records
	}
	valid := recs[:0:0]
	for i := range recs {
		if recs[i].Validate() == nil {
			valid = append(valid, recs[i])
		}
	}
	return router, valid, nil
}

// captureDatagrams has trafficgen.Replay export mixed-protocol traffic
// (even routers NetFlow v9, odd routers sFlow) to a socket of the
// benchmark's own and keeps the datagrams: the generator's exact wire
// bytes, pre-encoded for the measured run.
func captureDatagrams(seed int64, p udpParams) ([][]byte, error) {
	ln, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	if uc, ok := ln.(*net.UDPConn); ok {
		_ = uc.SetReadBuffer(4 << 20) // best effort; the gap below is what prevents loss
	}
	want := p.bursts * p.routers * p.burstLen
	var (
		got  [][]byte
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		buf := make([]byte, 1<<16)
		for len(got) < want {
			n, _, err := ln.ReadFrom(buf)
			if err != nil {
				return // deadline: the count check below reports the shortfall
			}
			got = append(got, append([]byte(nil), buf[:n]...))
		}
	}()
	stats, err := trafficgen.Replay(ln.LocalAddr().String(),
		trafficgen.Config{Seed: seed, NumFlows: p.flows, Routers: p.routers},
		trafficgen.ReplayOptions{
			Epochs: p.bursts, RecordsPerRouter: p.burstLen * recsPerDgram, RecordsPerPacket: recsPerDgram,
			Protocol: trafficgen.ProtoMixed, Gap: 20 * time.Microsecond,
		})
	if err != nil {
		return nil, err
	}
	_ = ln.SetReadDeadline(time.Now().Add(2 * time.Second))
	<-done
	if len(got) != want || stats.Datagrams != want {
		return nil, fmt.Errorf("captured %d of %d replayed datagrams (wanted %d)", len(got), stats.Datagrams, want)
	}
	return got, nil
}

// udpRig is a collector on a real loopback socket with a connected
// sender socket next to it.
type udpRig struct {
	p       udpParams
	dgrams  [][]byte
	expect  []int              // records the collector should commit per datagram
	batches [][]netflow.Record // the pool's records by router, for the probes
	st      *store.Store
	lg      *ledger.Ledger
	pipe    *ingest.Pipeline
	conn    net.Conn
	warm    *sent // what the warm-up put on the wire
}

func newUDPRig(cfg *config, p udpParams) (*udpRig, error) {
	dgrams, err := captureDatagrams(cfg.seed, p)
	if err != nil {
		return nil, err
	}
	r := &udpRig{p: p, dgrams: dgrams, expect: make([]int, len(dgrams)), batches: make([][]netflow.Record, p.routers)}
	dec := netflow.NewV9Decoder(0)
	for i, d := range dgrams {
		router, recs, err := decodeRecords(dec, d)
		if err != nil || int(router) >= p.routers {
			return nil, fmt.Errorf("captured datagram %d does not decode (router %d): %v", i, router, err)
		}
		r.expect[i] = len(recs)
		r.batches[router] = append(r.batches[router], recs...)
	}
	// Retention bounds memory: sealed epochs are never read back here.
	r.st, r.lg = store.Open(2), ledger.New()
	r.pipe, err = ingest.New(r.st, r.lg, ingest.Config{Addr: "127.0.0.1:0", Shards: 4, QueueDepth: 4096})
	if err != nil {
		return nil, err
	}
	if err := r.pipe.Start(); err != nil {
		return nil, err
	}
	if r.conn, err = net.Dial("udp", r.pipe.Addr().String()); err != nil {
		r.pipe.Close()
		return nil, err
	}
	// Warm-up traffic: template cache, shard buffers, page faults.
	var stop atomic.Bool
	time.AfterFunc(p.warm, func() { stop.Store(true) })
	if r.warm, err = r.send(&stop); err != nil {
		r.close()
		return nil, err
	}
	r.pipe.Seal()
	return r, nil
}

func (r *udpRig) close() error {
	r.conn.Close()
	if err := r.pipe.Close(); err != nil {
		return err
	}
	return checkAccounting(r.pipe.Stats())
}

// sent is what one sender run put on the wire.
type sent struct {
	dgrams, records, bytes int64
	lost                   int64   // datagrams written that the collector never counted
	pickup                 samples // ms from write to the collector counting the datagram, sampled
}

const (
	probeRounds = 5                      // passes of the post-run probes over the pool
	pickupEvery = 16                     // sample one datagram in this many
	stallAfter  = 200 * time.Millisecond // a full window with no progress for this long is loss
)

// send is the closed-loop sender: one goroutine writing the pool's
// datagrams round-robin, never more than window ahead of the
// collector's own datagram counter. While the window is full it
// sleeps rather than spins: on two cores a spinning sender takes from
// the collector the CPU the workload is there to measure. It returns
// once stop is set and the collector has counted (or provably lost)
// everything written.
func (r *udpRig) send(stop *atomic.Bool) (*sent, error) {
	var (
		s        = &sent{}
		base     = int64(r.pipe.Stats().Datagrams)
		acked    int64 // datagrams the collector has counted, plus those given up as lost
		written  = make([]time.Time, r.p.window)
		progress = time.Now()
	)
	for {
		now := time.Now()
		if a := int64(r.pipe.Stats().Datagrams) - base + s.lost; a > acked {
			for i := acked; i < a; i++ {
				if i%pickupEvery == 0 {
					s.pickup.addMs(now.Sub(written[i%int64(len(written))]))
				}
			}
			acked, progress = a, now
		}
		outstanding := s.dgrams - acked
		switch {
		case outstanding == 0 && stop.Load():
			return s, nil
		case outstanding > 0 && now.Sub(progress) > stallAfter:
			// The kernel dropped them: they will never be counted.
			s.lost += outstanding
		case outstanding >= int64(len(written)) || stop.Load():
			time.Sleep(20 * time.Microsecond)
		default:
			i := s.dgrams % int64(len(r.dgrams))
			written[s.dgrams%int64(len(written))] = now
			if _, err := r.conn.Write(r.dgrams[i]); err != nil {
				return nil, fmt.Errorf("udp send: %w", err)
			}
			s.dgrams++
			s.records += int64(r.expect[i])
			s.bytes += int64(len(r.dgrams[i]))
		}
	}
}

func runIngestUDP(cfg *config) (*result, error) {
	p := udpSizes(cfg.toy)
	rig, setup, err := buildRig(cfg, func() (*udpRig, error) { return newUDPRig(cfg, p) })
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		out      *sent
		sendErr  error
		tickRate samples // committed records per second, one sample per epoch tick
		sealMs   samples
		// lastSealed is an epoch every router committed to: the
		// inclusion-proof probe looks one of its entries up.
		lastSealed uint64
	)
	committed0 := rig.pipe.Stats().Committed
	runtime.GC()
	proc0 := readProc()
	start := time.Now()
	root := tr.begin("run", -1, 0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		out, sendErr = rig.send(&stop)
	}()
	tick := time.NewTicker(p.sealEvery)
	prev, recv := start, tr.begin("ingest.receive", root, 0)
	for range tick.C {
		// The seal drains the shard queues first, so its start is the
		// boundary between this epoch's records and the next one's.
		t0 := time.Now()
		tr.end(recv)
		id := tr.begin("ingest.seal", root, 0)
		seal := rig.pipe.Seal()
		tr.end(id)
		recv = tr.begin("ingest.receive", root, 0)
		sealMs.addMs(time.Since(t0))
		tickRate.add(float64(seal.Records) / t0.Sub(prev).Seconds())
		prev = t0
		if seal.Routers == p.routers {
			lastSealed = seal.Epoch
		}
		if t0.Sub(start).Seconds() >= cfg.seconds {
			break
		}
	}
	tick.Stop()
	stop.Store(true)
	wg.Wait()
	rig.pipe.Seal() // what arrived after the last tick
	tr.end(recv)
	tr.end(root)
	elapsed := time.Since(start)
	proc1 := readProc()
	if sendErr != nil {
		rig.close()
		return nil, sendErr
	}
	if err := rig.close(); err != nil {
		return nil, err
	}
	// Loss is counted over the rig's whole life: the collector counts a
	// datagram before it decodes it, so the warm-up's last datagram can
	// commit just after the window opens, and a window count alone
	// would be off by it.
	stats := rig.pipe.Stats()
	lost := rig.warm.records + out.records - int64(stats.Committed)
	committed := int64(stats.Committed - committed0)
	if lost < 0 {
		return nil, fmt.Errorf("collector committed %d records but only %d were sent", stats.Committed, rig.warm.records+out.records)
	}
	if committed <= 0 {
		return nil, errors.New("collector committed nothing")
	}

	res := &result{
		Attempted: out.records,
		Failed:    lost, // queue-full, evicted, invalid, ledger-refused and kernel loss alike
		EndToEnd: []metric{
			timing("flows_per_s", "1/s", tickRate),
			timing("latency_ms", "ms", out.pickup),
			scalar("wire_bytes_per_op", "bytes", float64(out.bytes)/float64(committed), int(committed)),
			timing("setup_s", "s", setup),
		},
		Named: []metric{
			timing("ingest_flows_per_s", "1/s", tickRate),
			scalar("ingest_flows_per_s_mean", "1/s", float64(committed)/elapsed.Seconds(), int(committed)),
			timing("datagram_pickup_ms", "ms", out.pickup),
			scalar("wire_bytes_per_record", "bytes", float64(out.bytes)/float64(committed), int(committed)),
		},
		Notes: []string{
			"traffic crossed the host's loopback interface, not a link",
			fmt.Sprintf("%d datagrams sent (%d given up as lost in the kernel), %d records committed in %.2fs over %d epoch ticks, %d set-ups",
				out.dgrams, out.lost, committed, elapsed.Seconds(), len(tickRate), len(setup)),
		},
	}
	if cfg.trace {
		lay := layers{}
		for _, v := range sealMs {
			lay.add("ingest.seal_ms", v)
		}
		lay.addIngest(stats)
		lay.addProc(proc0, proc1)
		if err := rig.probe(lay, lastSealed); err != nil {
			return nil, err
		}
		cpuPerRec := (proc1.cpu - proc0.cpu).Seconds() * 1e9 / float64(committed)
		probed := lay["netflow.decode_ns_per_record"].median() + lay["store.append_ns_per_record"].median() + lay["ledger.commit_ns_per_record"].median()
		res.Notes = append(res.Notes,
			fmt.Sprintf("process CPU per committed record %.0f ns (sender included); decode + store append + commitment hash probed alone cost %.0f ns", cpuPerRec, probed))
		if err := lay.finishTrace(res, tr, cfg, "ingest-udp"); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// probe times the collector's inner calls on the pool's own data,
// after the run, with the process otherwise idle: the decoders, a
// socketless pipeline's Inject, store.Append and the ledger calls.
func (r *udpRig) probe(lay layers, sealed uint64) error {
	records := 0
	for _, n := range r.expect {
		records += n
	}
	pipe, err := ingest.New(store.Open(2), ledger.New(), ingest.Config{Shards: 4, QueueDepth: 4096})
	if err != nil {
		return err
	}
	if err := pipe.Start(); err != nil {
		return err
	}
	for i := 0; i < probeRounds; i++ {
		probeDecode(r.dgrams, records, lay)
		t0 := time.Now()
		for _, d := range r.dgrams {
			pipe.Inject(d)
		}
		lay.add("ingest.inject_us_per_dgram", float64(time.Since(t0).Nanoseconds())/1e3/float64(len(r.dgrams)))
		if seal := pipe.Seal(); seal.Records != records {
			return fmt.Errorf("probe pipeline committed %d of %d records", seal.Records, records)
		}
		if err := probeStoreLedger(r.lg, sealed, uint64(i), r.batches, records, lay); err != nil {
			return err
		}
	}
	if err := pipe.Close(); err != nil {
		return err
	}
	return checkAccounting(pipe.Stats())
}
