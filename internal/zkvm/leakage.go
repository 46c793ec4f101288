package zkvm

// LeakageReport quantifies the zero-knowledge gap of a seal: the
// sampled-check openings reveal a bounded number of trace rows,
// memory-log entries and memory-image records to the verifier. A
// FRI-compiled STARK (as used by the paper's RISC Zero backend) reveals
// none; this report makes our substitution's leakage explicit and
// measurable. Unopened leaves reveal nothing — every committed leaf is
// individually salted. An opened leaf reveals its whole block of
// records.
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
	// TotalImageWords counts the records of every memory image the
	// receipt commits: each boundary image once — a segment's exit image
	// is the next one's entry image — and the final segment's final
	// table. Every seal opens its final table, so every receipt reveals
	// some (addr, val, ts) words; OpenedImageWords counts the distinct
	// ones and ImageFraction their share.
	TotalImageWords  int
	OpenedImageWords int
	ImageFraction    float64
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
	rows, mems, words := map[int]bool{}, map[int]bool{}, map[int]bool{}
	for _, sr := range r.Segments {
		s, v := &sr.Seal, &segmentVerifier{SegmentReceipt: sr}
		row := revealer(rows, rep.TotalRows, v.col(proofExec))
		mem := revealer(mems, rep.TotalMemEntries, v.col(proofMem))
		// Image k is segment k's final table and segment k+1's entry
		// image: the entry image's records are numbered where the last
		// segment's final table's were.
		entry := revealer(words, rep.TotalImageWords-int(sr.Entry.MemLen), v.col(proofEntry))
		final := revealer(words, rep.TotalImageWords, v.col(proofFinal))
		rep.TotalRows += int(s.NumRows)
		rep.TotalMemEntries += int(s.NumMem)
		rep.TotalImageWords += int(s.NumFinal)

		row(s.FirstRow, s.LastRow)
		if s.NumMem > 0 {
			mem(s.Log.Record)
		}
		if s.NumFinal > 0 {
			final(s.Final.Record)
		}
		if sr.Entry.MemLen > 0 {
			entry(s.Init.Record)
		}
		for _, c := range s.ExecChecks {
			row(c.Rows...)
			mem(c.Mem...)
		}
		for _, c := range s.MemChecks {
			mem(c.Record)
		}
		for _, c := range s.FinalChecks {
			final(c.Records...)
		}
		for _, c := range s.InitChecks {
			entry(c.Record)
		}
	}
	rep.OpenedRows, rep.OpenedMemEntries, rep.OpenedImageWords = len(rows), len(mems), len(words)
	rep.RowFraction = fraction(rep.OpenedRows, rep.TotalRows)
	rep.MemFraction = fraction(rep.OpenedMemEntries, rep.TotalMemEntries)
	rep.ImageFraction = fraction(rep.OpenedImageWords, rep.TotalImageWords)
	return rep
}

// fraction is part/total, zero for an empty total.
func fraction(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}
