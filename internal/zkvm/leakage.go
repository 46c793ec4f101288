package zkvm

// LeakageReport quantifies the zero-knowledge gap of a seal: the
// sampled-check openings reveal a bounded number of trace rows and
// memory-log entries to the verifier. A FRI-compiled STARK (as used by
// the paper's RISC Zero backend) reveals none; this report makes our
// substitution's leakage explicit and measurable. Unopened leaves
// reveal nothing — every committed leaf is individually salted. An
// opened leaf reveals its whole block of records.
type LeakageReport struct {
	// TotalRows and TotalMemEntries are the committed table sizes.
	TotalRows       int
	TotalMemEntries int
	// OpenedRows and OpenedMemEntries count distinct revealed records.
	OpenedRows       int
	OpenedMemEntries int
	// RowFraction and MemFraction are the revealed fractions.
	RowFraction float64
	MemFraction float64
}

// reveal marks the records the opened leaf o of column c holds — for an
// exec leaf, the rows it expands to — numbering record i of the table
// base+i.
func reveal(seen map[int]bool, base int, o *Opening, c column) {
	for k := range c.count(o.Index) { // none for a leaf past the table
		seen[base+o.Index*leafRecords+k] = true
	}
}

// Leakage computes the report for a receipt. It counts records, not
// leaves: an opened leaf reveals every record of its block, the ones
// the check did not ask for included.
func Leakage(r *Receipt) LeakageReport {
	s := &r.Seal
	rows, mems := map[int]bool{}, map[int]bool{}
	row := func(o *Opening) { reveal(rows, 0, o, s.execCol()) }
	prog := func(o *Opening) { reveal(mems, 0, o, s.memProgCol()) }
	// Sorted-log openings reveal the same underlying accesses in a
	// different order; count them in the same pool.
	sorted := func(o *Opening) { reveal(mems, int(s.NumMem), o, s.memSortCol()) }

	row(&s.FirstRow)
	row(&s.LastRow)
	if s.NumMem > 0 {
		prog(&s.MemProgFirst)
		sorted(&s.MemSortFirst)
	}
	for i := range s.ExecChecks {
		c := &s.ExecChecks[i]
		for j := range c.Rows {
			row(&c.Rows[j])
		}
		for j := range c.Mem {
			prog(&c.Mem[j])
		}
	}
	for i := range s.ProdChecks {
		prog(&s.ProdChecks[i].Entry)
	}
	for i := range s.SortChecks {
		c := &s.SortChecks[i]
		for j := range c.Entries {
			sorted(&c.Entries[j])
		}
	}
	rep := LeakageReport{
		TotalRows:        int(s.NumRows),
		TotalMemEntries:  int(s.NumMem),
		OpenedRows:       len(rows),
		OpenedMemEntries: len(mems),
	}
	if rep.TotalRows > 0 {
		rep.RowFraction = float64(rep.OpenedRows) / float64(rep.TotalRows)
	}
	if rep.TotalMemEntries > 0 {
		// Sorted and program-order pools double the nominal total.
		rep.MemFraction = float64(rep.OpenedMemEntries) / float64(2*rep.TotalMemEntries)
	}
	return rep
}
