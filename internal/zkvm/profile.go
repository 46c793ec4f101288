package zkvm

import (
	"fmt"
	"sort"
	"strings"
)

// Region is a labelled instruction range of a program, used to
// attribute execution cycles to guest phases — the counterpart of the
// paper's RISC Zero profiling that identified in-VM Merkle updates as
// the dominant cost.
type Region struct {
	Name  string
	Start int // first instruction index
	End   int // one past the last instruction index
}

// Regions derives label-delimited regions from the assembler: each
// label opens a region that extends to the next label (or program
// end). Internal dotted labels (loop targets like "merge.absorb")
// fold into their parent prefix, so a guest's phases profile cleanly.
func (a *Assembler) Regions() []Region {
	type labelAt struct {
		name string
		at   int
	}
	var labels []labelAt
	for name, at := range a.labels {
		labels = append(labels, labelAt{name, at})
	}
	sort.Slice(labels, func(i, j int) bool {
		if labels[i].at != labels[j].at {
			return labels[i].at < labels[j].at
		}
		return labels[i].name < labels[j].name
	})
	var out []Region
	prevName := "entry"
	prevAt := 0
	flush := func(end int) {
		if end > prevAt {
			out = append(out, Region{Name: prevName, Start: prevAt, End: end})
		}
	}
	for _, l := range labels {
		base := l.name
		if i := strings.IndexByte(base, '.'); i > 0 {
			base = base[:i]
		}
		if base == prevName {
			continue // same phase continues
		}
		flush(l.at)
		prevName = base
		prevAt = l.at
	}
	flush(len(a.instrs))
	return out
}

// ProfileEntry is one region's share of an execution.
type ProfileEntry struct {
	Name     string
	Cycles   int
	MemOps   int
	CyclePct float64
}

// Profile attributes an execution's cycles and memory operations to
// regions. Cycles at instruction indices not covered by any region
// are reported under "(unattributed)"; where regions overlap, the
// first listed wins.
func Profile(ex *Execution, regions []Region) []ProfileEntry {
	// Entry 0 is the unattributed bucket; byPC maps an instruction
	// index to its entry, so a row costs one lookup however many
	// regions there are.
	entries := []ProfileEntry{{Name: "(unattributed)"}}
	byName := map[string]int{}
	var byPC []int
	for _, r := range regions {
		e, ok := byName[r.Name]
		if !ok {
			e = len(entries)
			byName[r.Name] = e
			entries = append(entries, ProfileEntry{Name: r.Name})
		}
		if r.End > len(byPC) {
			byPC = append(byPC, make([]int, r.End-len(byPC))...)
		}
		for pc := max(r.Start, 0); pc < r.End; pc++ {
			if byPC[pc] == 0 {
				byPC[pc] = e
			}
		}
	}
	for i := range ex.Rows {
		e := &entries[0]
		if pc := int(ex.Rows[i].PC); pc < len(byPC) {
			e = &entries[byPC[pc]]
		}
		e.Cycles++
		if i+1 < len(ex.Rows) {
			e.MemOps += int(ex.Rows[i+1].MemPtr - ex.Rows[i].MemPtr)
		} else {
			e.MemOps += len(ex.MemLog) - int(ex.Rows[i].MemPtr)
		}
	}
	out := entries[:0]
	for _, e := range entries {
		if e.Cycles > 0 {
			e.CyclePct = 100 * float64(e.Cycles) / float64(len(ex.Rows))
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycles > out[j].Cycles })
	return out
}

// FormatProfile renders a profile as an aligned table.
func FormatProfile(entries []ProfileEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %8s %12s\n", "region", "cycles", "%", "mem ops")
	for _, e := range entries {
		fmt.Fprintf(&b, "%-16s %12d %7.1f%% %12d\n", e.Name, e.Cycles, e.CyclePct, e.MemOps)
	}
	return b.String()
}
