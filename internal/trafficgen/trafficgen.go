// Package trafficgen generates deterministic synthetic NetFlow
// workloads: a Zipf-popular flow population spread across routers,
// with configurable loss, RTT, and jitter models. It stands in for
// the paper's custom NetFlow simulator traffic source and for the
// production traces we do not have (see DESIGN.md §1) — the generated
// records exercise the identical commitment/aggregation/query paths.
package trafficgen

import (
	"fmt"
	"math/rand"

	"zkflow/internal/netflow"
)

// Provider describes a content provider whose flows share a
// destination prefix — the unit of comparison in neutrality audits.
type Provider struct {
	Name string
	// DstIP is the provider's anycast service address.
	DstIP uint32
	// RTTBias inflates this provider's RTT by a factor; 1.0 means
	// neutral treatment. The neutrality example sets it >1 on one
	// provider to simulate throttling.
	RTTBias float64
}

// Config parameterises a workload.
type Config struct {
	// Seed makes the workload reproducible.
	Seed int64
	// NumFlows is the size of the flow population.
	NumFlows int
	// Routers is the number of vantage points (paper setup: 4).
	Routers int
	// ZipfS is the Zipf skew (>1; default 1.2).
	ZipfS float64
	// LossRate is the expected fraction of packets dropped.
	LossRate float64
	// BaseRTTMicros is the median RTT; jitter spreads around it.
	BaseRTTMicros uint32
	// JitterMicros is the RTT spread.
	JitterMicros uint32
	// StartUnix anchors observation windows.
	StartUnix uint32
	// Providers optionally pins flows to provider destinations,
	// round-robin. Empty means random destinations.
	Providers []Provider
}

// Generator produces records. Not safe for concurrent use; create one
// generator per goroutine (PerRouter does this).
type Generator struct {
	cfg   Config
	rng   *rand.Rand
	zipf  *rand.Zipf
	flows []netflow.FlowKey
	prov  []int // flow index -> provider index (-1 if none)
}

// New builds a generator, materialising the flow population.
func New(cfg Config) *Generator {
	if cfg.NumFlows <= 0 {
		cfg.NumFlows = 1024
	}
	if cfg.Routers <= 0 {
		cfg.Routers = 4
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.BaseRTTMicros == 0 {
		cfg.BaseRTTMicros = 20000
	}
	if cfg.JitterMicros == 0 {
		cfg.JitterMicros = 2000
	}
	if cfg.StartUnix == 0 {
		cfg.StartUnix = 1700000000
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.zipf = rand.NewZipf(g.rng, cfg.ZipfS, 1, uint64(cfg.NumFlows-1))
	g.flows = make([]netflow.FlowKey, cfg.NumFlows)
	g.prov = make([]int, cfg.NumFlows)
	for i := range g.flows {
		key := netflow.FlowKey{
			SrcIP:   0x0a000000 | uint32(g.rng.Intn(1<<24)), // 10.0.0.0/8 clients
			SrcPort: uint16(1024 + g.rng.Intn(60000)),
			Proto:   6,
		}
		if len(cfg.Providers) > 0 {
			p := i % len(cfg.Providers)
			g.prov[i] = p
			key.DstIP = cfg.Providers[p].DstIP
			key.DstPort = 443
		} else {
			g.prov[i] = -1
			key.DstIP = 0x08000000 | uint32(g.rng.Intn(1<<24))
			key.DstPort = uint16([]int{80, 443, 8080}[g.rng.Intn(3)])
		}
		g.flows[i] = key
	}
	return g
}

// Record produces one record observed at the given router during the
// given epoch.
func (g *Generator) Record(router uint32, epoch uint64) netflow.Record {
	flowIdx := int(g.zipf.Uint64())
	key := g.flows[flowIdx]
	packets := uint32(1 + g.rng.Intn(1000))
	dropped := uint32(0)
	if g.cfg.LossRate > 0 {
		for p := uint32(0); p < packets; p++ {
			if g.rng.Float64() < g.cfg.LossRate {
				dropped++
			}
		}
	}
	rtt := float64(g.cfg.BaseRTTMicros) + g.rng.NormFloat64()*float64(g.cfg.JitterMicros)
	if p := g.prov[flowIdx]; p >= 0 && g.cfg.Providers[p].RTTBias > 0 {
		rtt *= g.cfg.Providers[p].RTTBias
	}
	if rtt < 100 {
		rtt = 100
	}
	jitter := g.rng.Float64() * float64(g.cfg.JitterMicros)
	start := g.cfg.StartUnix + uint32(epoch)*5 // 5 s commit windows (paper setup)
	return netflow.Record{
		Key:          key,
		Packets:      packets,
		Bytes:        packets * uint32(64+g.rng.Intn(1400)),
		Dropped:      dropped,
		HopCount:     uint32(2 + g.rng.Intn(12)),
		RTTMicros:    uint32(rtt),
		JitterMicros: uint32(jitter),
		StartUnix:    start,
		EndUnix:      start + 5,
		RouterID:     router,
	}
}

// Batch produces n records for one router/epoch.
func (g *Generator) Batch(router uint32, epoch uint64, n int) []netflow.Record {
	out := make([]netflow.Record, n)
	for i := range out {
		out[i] = g.Record(router, epoch)
	}
	return out
}

// PerRouter derives one independent deterministic generator per
// router, suitable for concurrent per-router goroutines.
func PerRouter(cfg Config) []*Generator {
	if cfg.Routers <= 0 {
		cfg.Routers = 4
	}
	gens := make([]*Generator, cfg.Routers)
	for i := range gens {
		c := cfg
		c.Seed = cfg.Seed*1000003 + int64(i)
		gens[i] = New(c)
	}
	return gens
}

// String summarises the config.
func (c Config) String() string {
	return fmt.Sprintf("trafficgen{seed=%d flows=%d routers=%d zipf=%.2f loss=%.3f}",
		c.Seed, c.NumFlows, c.Routers, c.ZipfS, c.LossRate)
}
