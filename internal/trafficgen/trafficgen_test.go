package trafficgen

import (
	"testing"

	"zkflow/internal/netflow"
)

func TestDeterminism(t *testing.T) {
	a := New(Config{Seed: 1, NumFlows: 64})
	b := New(Config{Seed: 1, NumFlows: 64})
	ra := a.Batch(0, 0, 50)
	rb := b.Batch(0, 0, 50)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d differs across same-seed generators", i)
		}
	}
}

func TestSeedChangesWorkload(t *testing.T) {
	a := New(Config{Seed: 1, NumFlows: 64})
	b := New(Config{Seed: 2, NumFlows: 64})
	ra, rb := a.Batch(0, 0, 20), b.Batch(0, 0, 20)
	same := 0
	for i := range ra {
		if ra[i] == rb[i] {
			same++
		}
	}
	if same == len(ra) {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestRecordsAreValid(t *testing.T) {
	g := New(Config{Seed: 3, NumFlows: 32, LossRate: 0.05})
	for _, r := range g.Batch(2, 7, 500) {
		if err := r.Validate(); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
		if r.RouterID != 2 {
			t.Fatalf("router id %d", r.RouterID)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	g := New(Config{Seed: 4, NumFlows: 1000, ZipfS: 1.5})
	counts := make(map[netflow.FlowKey]int)
	for _, r := range g.Batch(0, 0, 5000) {
		counts[r.Key]++
	}
	// Heavy-tailed: the most popular flow should dominate the median.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 100 {
		t.Fatalf("no heavy hitter: max count %d of 5000", max)
	}
	if len(counts) < 10 {
		t.Fatalf("population collapsed to %d flows", len(counts))
	}
}

func TestLossRate(t *testing.T) {
	g := New(Config{Seed: 5, NumFlows: 16, LossRate: 0.1})
	var pkts, drops uint64
	for _, r := range g.Batch(0, 0, 1000) {
		pkts += uint64(r.Packets)
		drops += uint64(r.Dropped)
	}
	ratio := float64(drops) / float64(pkts)
	if ratio < 0.05 || ratio > 0.2 {
		t.Fatalf("loss ratio %.3f far from configured 0.1", ratio)
	}
}

func TestZeroLossByDefault(t *testing.T) {
	g := New(Config{Seed: 6, NumFlows: 16})
	for _, r := range g.Batch(0, 0, 200) {
		if r.Dropped != 0 {
			t.Fatal("drops without configured loss")
		}
	}
}

func TestProviders(t *testing.T) {
	provs := []Provider{
		{Name: "video-a", DstIP: netflow.MustParseIPv4("9.9.9.9"), RTTBias: 1},
		{Name: "video-b", DstIP: netflow.MustParseIPv4("8.8.8.8"), RTTBias: 3},
	}
	g := New(Config{Seed: 7, NumFlows: 100, Providers: provs})
	var rttA, rttB, nA, nB float64
	for _, r := range g.Batch(0, 0, 4000) {
		switch r.Key.DstIP {
		case provs[0].DstIP:
			rttA += float64(r.RTTMicros)
			nA++
		case provs[1].DstIP:
			rttB += float64(r.RTTMicros)
			nB++
		default:
			t.Fatal("record outside provider pools")
		}
	}
	if nA == 0 || nB == 0 {
		t.Fatal("a provider received no traffic")
	}
	if rttB/nB < 2*(rttA/nA) {
		t.Fatalf("RTT bias not visible: a=%.0f b=%.0f", rttA/nA, rttB/nB)
	}
}

func TestProviderOf(t *testing.T) {
	provs := []Provider{{Name: "x", DstIP: 1}, {Name: "y", DstIP: 2}}
	g := New(Config{Seed: 8, NumFlows: 10, Providers: provs})
	for i, p := range g.prov {
		if p != i%2 {
			t.Fatalf("flow %d provider %d", i, p)
		}
	}
}

func TestPerRouterIndependent(t *testing.T) {
	gens := PerRouter(Config{Seed: 9, NumFlows: 32, Routers: 4})
	if len(gens) != 4 {
		t.Fatalf("got %d generators", len(gens))
	}
	a := gens[0].Batch(0, 0, 10)
	b := gens[1].Batch(1, 0, 10)
	same := 0
	for i := range a {
		if a[i].Key == b[i].Key {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("per-router generators correlated")
	}
}

func TestEpochAdvancesWindows(t *testing.T) {
	g := New(Config{Seed: 10, NumFlows: 8})
	r0 := g.Batch(0, 0, 1)[0]
	r9 := g.Batch(0, 9, 1)[0]
	if r9.StartUnix != r0.StartUnix-0+45 && r9.StartUnix <= r0.StartUnix {
		t.Fatalf("epoch windows do not advance: %d vs %d", r0.StartUnix, r9.StartUnix)
	}
}

func TestConfigString(t *testing.T) {
	s := Config{Seed: 1, NumFlows: 2, Routers: 3, ZipfS: 1.5, LossRate: 0.01}.String()
	if s == "" {
		t.Fatal("empty config string")
	}
}
