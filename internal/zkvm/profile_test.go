package zkvm

import (
	"strings"
	"testing"
)

func TestRegionsFromLabels(t *testing.T) {
	a := NewAssembler()
	a.Li(R2, 1) // entry region
	a.Label("phase1")
	a.Li(R3, 2)
	a.Label("phase1.loop") // folds into phase1
	a.Li(R4, 3)
	a.Label("phase2")
	a.HaltCode(0)
	regions := a.Regions()
	if len(regions) != 3 {
		t.Fatalf("got %d regions: %+v", len(regions), regions)
	}
	if regions[0].Name != "entry" || regions[1].Name != "phase1" || regions[2].Name != "phase2" {
		t.Fatalf("names: %+v", regions)
	}
	if regions[1].Start != 1 || regions[1].End != 3 {
		t.Fatalf("phase1 bounds: %+v", regions[1])
	}
}

func TestProfileAttributesCycles(t *testing.T) {
	a := NewAssembler()
	a.Li(R2, 0)
	a.Li(R3, 50)
	a.Label("hot")
	a.Addi(R2, R2, 1)
	a.Bltu(R2, R3, "hot")
	a.Label("cold")
	a.Li(R4, 9)
	a.Sw(R4, R0, 100)
	a.HaltCode(0)
	regions := a.Regions()
	prog := a.MustAssemble()
	ex, err := Execute(prog, nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prof := Profile(ex, regions)
	if prof[0].Name != "hot" {
		t.Fatalf("hottest region is %q", prof[0].Name)
	}
	if prof[0].Cycles != 100 { // 50 iterations x 2 instructions
		t.Fatalf("hot cycles = %d", prof[0].Cycles)
	}
	var total int
	var memOps int
	for _, e := range prof {
		total += e.Cycles
		memOps += e.MemOps
	}
	if total != len(ex.Rows) {
		t.Fatalf("profile cycles %d != trace %d", total, len(ex.Rows))
	}
	if memOps != len(ex.MemLog) {
		t.Fatalf("profile mem ops %d != memlog %d", memOps, len(ex.MemLog))
	}
	out := FormatProfile(prof)
	if !strings.Contains(out, "hot") || !strings.Contains(out, "cold") {
		t.Fatalf("format missing regions:\n%s", out)
	}
}

func TestProfileUnattributed(t *testing.T) {
	a := NewAssembler()
	a.Li(R2, 1)
	a.HaltCode(0)
	prog := a.MustAssemble()
	ex, err := Execute(prog, nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Empty region list: everything lands in (unattributed).
	prof := Profile(ex, nil)
	if len(prof) != 1 || prof[0].Name != "(unattributed)" {
		t.Fatalf("profile: %+v", prof)
	}
	if prof[0].CyclePct < 99.9 {
		t.Fatalf("pct = %f", prof[0].CyclePct)
	}
}

// TestProfileRegionTable: regions that share a name share an entry,
// the first region listed wins an overlap, and rows past every region
// are unattributed.
func TestProfileRegionTable(t *testing.T) {
	a := NewAssembler()
	for i := 0; i < 6; i++ {
		a.Li(R2, uint32(i))
	}
	a.HaltCode(0) // instructions 6 and 7
	ex, err := Execute(a.MustAssemble(), nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prof := Profile(ex, []Region{{"a", 0, 2}, {"b", 1, 4}, {"a", 4, 6}})
	got := map[string]int{}
	for _, e := range prof {
		got[e.Name] = e.Cycles
	}
	if len(prof) != 3 || got["a"] != 4 || got["b"] != 2 || got["(unattributed)"] != 2 {
		t.Fatalf("profile: %+v", prof)
	}
}
