package zkvm

// LeakageReport quantifies the zero-knowledge gap of a seal: the
// sampled-check openings reveal a bounded number of trace rows and
// memory-log entries to the verifier. A FRI-compiled STARK (as used by
// the paper's RISC Zero backend) reveals none; this report makes our
// substitution's leakage explicit and measurable. Unopened leaves
// reveal nothing — every committed leaf is individually salted. An
// opened leaf reveals its whole block of records. The report covers the
// execution trace and the memory logs only: the boundary-image openings
// of a cut run's continuation checks (ImportCheck.Img, ExitCheck.Img,
// CoverCheck.Img) also reveal (addr, val) words of the memory image at
// a segment boundary, and are not counted here.
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

// revealer returns a function that marks the records the opened
// leaves of column c hold — for an exec leaf, the rows it expands to —
// numbering record i of the table base+i.
func revealer(seen map[int]bool, base int, c column) func(...Opening) {
	return func(os ...Opening) {
		for _, o := range os {
			for k := range c.count(o.Index) { // none for a leaf past the table
				seen[base+o.Index*leafRecords+k] = true
			}
		}
	}
}

// Leakage computes the report for a receipt, over all its segments. It
// counts records, not leaves: an opened leaf reveals every record of its
// block, the ones the check did not ask for included.
func Leakage(r *Receipt) LeakageReport {
	var rep LeakageReport
	rows, mems := map[int]bool{}, map[int]bool{}
	for _, sr := range r.Segments {
		s, v := &sr.Seal, &segmentVerifier{SegmentReceipt: sr}
		row := revealer(rows, rep.TotalRows, v.col(proofExec))
		prog := revealer(mems, 2*rep.TotalMemEntries, v.col(proofMemProg))
		// Sorted-log openings reveal the same underlying accesses in a
		// different order; count them in the same pool.
		sorted := revealer(mems, 2*rep.TotalMemEntries+int(s.NumMem), v.col(proofMemSort))
		rep.TotalRows += int(s.NumRows)
		rep.TotalMemEntries += int(s.NumMem)

		row(s.FirstRow, s.LastRow)
		if s.NumMem > 0 {
			prog(s.MemProgFirst)
			sorted(s.MemSortFirst)
		}
		for _, c := range s.ExecChecks {
			row(c.Rows...)
			prog(c.Mem...)
		}
		for _, c := range s.ProdChecks {
			prog(c.Entry)
		}
		for _, c := range s.SortChecks {
			sorted(c.Entries...)
		}
		for _, c := range sr.ImportChecks {
			prog(c.MemProg)
		}
		for _, c := range sr.ExitChecks {
			sorted(c.Sort...)
		}
		for _, c := range sr.CoverChecks {
			sorted(c.Entries...)
		}
	}
	rep.OpenedRows, rep.OpenedMemEntries = len(rows), len(mems)
	if rep.TotalRows > 0 {
		rep.RowFraction = float64(rep.OpenedRows) / float64(rep.TotalRows)
	}
	if rep.TotalMemEntries > 0 {
		// Sorted and program-order pools double the nominal total.
		rep.MemFraction = float64(rep.OpenedMemEntries) / float64(2*rep.TotalMemEntries)
	}
	return rep
}
