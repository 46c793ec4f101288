package zkvm

import (
	"fmt"

	"zkflow/internal/par"
)

// Verify checks a receipt against the guest program. On success the
// caller knows (up to sampling soundness, per segment) that running
// prog over *some* private input produced exactly the concatenated
// journal and the final exit code:
//
//   - segment 0 enters at the genesis state (reset machine, empty
//     image),
//   - every exit(i) equals entry(i+1) — same pc, registers, cursors,
//     and boundary-image commitment,
//   - only the last segment is Final, and it ends on a halt with exit
//     code 0,
//   - each segment's seal proves its slice under its own Fiat–Shamir
//     transcript, which absorbs the segment's index, role, journal
//     slice, and both boundary states — so segments cannot be
//     reordered, dropped, re-linked, or given a journal from another
//     run without invalidating their sampled openings.
func Verify(prog *Program, r *Receipt, opts VerifyOptions) error {
	if r == nil || len(r.Segments) == 0 {
		return vErr("receipt with no segments")
	}
	n := len(r.Segments)
	for i, sr := range r.Segments {
		if int(sr.Index) != i {
			return vErr("segment %d carries index %d", i, sr.Index)
		}
		if sr.Final != (i == n-1) {
			return vErr("segment %d final flag %v in a %d-segment chain", i, sr.Final, n)
		}
	}
	if r.Segments[0].Entry != GenesisState() {
		return vErr("segment 0 does not enter at the genesis state")
	}
	for i := 1; i < n; i++ {
		if r.Segments[i].Entry != r.Segments[i-1].Exit {
			return vErr("boundary %d: entry state does not match previous exit state", i)
		}
	}
	for i, sr := range r.Segments {
		if err := verifySegment(prog, sr, opts); err != nil {
			return vErr("segment %d: %v", i, err)
		}
	}
	return nil
}

// verifySegment checks one segment receipt in isolation: its seal
// binds the committed trace to the entry/exit states it declares, under
// the segment's statement. It is the only walk over a seal's boundary
// rows and sampled-check families. Chain-level rules (genesis, linkage,
// indices) live in Verify, which also prefixes the error, once.
func verifySegment(prog *Program, sr *SegmentReceipt, opts VerifyOptions) error {
	v := &segmentVerifier{SegmentReceipt: sr}
	if prog.ID() != sr.ImageID {
		return fmt.Errorf("image ID mismatch: receipt %v, program %v", sr.ImageID, prog.ID())
	}
	s := &sr.Seal
	nRows := int(s.NumRows)
	nMem := int(s.NumMem)
	if nRows < 1 {
		return fmt.Errorf("empty trace")
	}
	if sr.Final {
		if sr.ExitCode != 0 {
			return fmt.Errorf("guest exit code %d", sr.ExitCode)
		}
		if sr.Exit != (SegmentState{}) {
			return fmt.Errorf("final segment declares an exit state")
		}
	} else {
		if sr.ExitCode != 0 {
			return fmt.Errorf("non-final segment carries exit code %d", sr.ExitCode)
		}
		if nRows < 2 {
			return fmt.Errorf("non-final segment with no executed step")
		}
		// Cumulative cursor deltas must match the segment-local counts
		// the last row (checked below) declares.
		if sr.Exit.JPtr-sr.Entry.JPtr != uint32(len(sr.Journal)) {
			return fmt.Errorf("journal cursor delta %d, segment journal has %d words",
				sr.Exit.JPtr-sr.Entry.JPtr, len(sr.Journal))
		}
	}
	if int(sr.Entry.MemLen) > nMem {
		return fmt.Errorf("entry image larger than the memory log")
	}

	tr := segmentStatement(sr)
	tr.Append("exec-root", s.ExecRoot[:])
	tr.Append("memprog-root", s.MemProgRoot[:])
	tr.Append("memsort-root", s.MemSortRoot[:])
	alpha := tr.ChallengeElem("alpha")
	gamma := tr.ChallengeElem("gamma")
	tr.Append("prodprog-root", s.ProdProgRoot[:])
	tr.Append("prodsort-root", s.ProdSortRoot[:])

	// --- Boundary rows: entry binding replaces the initial-state rule,
	// exit binding (or the halt rule) replaces the final-state rule. ---
	first, err := v.execRow(prog, &s.FirstRow, 0)
	if err != nil {
		return fmt.Errorf("first row: %v", err)
	}
	if first.PC != sr.Entry.PC || first.Regs != sr.Entry.Regs {
		return fmt.Errorf("first row does not match the entry state")
	}
	if first.MemPtr != sr.Entry.MemLen {
		return fmt.Errorf("first row MemPtr %d, entry image has %d words", first.MemPtr, sr.Entry.MemLen)
	}
	if first.InPtr != 0 || first.JPtr != 0 {
		return fmt.Errorf("first row cursors not rebased to the segment")
	}
	last, err := v.execRow(prog, &s.LastRow, nRows-1)
	if err != nil {
		return fmt.Errorf("last row: %v", err)
	}
	if sr.Final {
		if last.PC >= uint32(len(prog.Instrs)) {
			return fmt.Errorf("last row pc %d outside program", last.PC)
		}
		if prog.Instrs[last.PC].Op != OpHalt {
			return fmt.Errorf("last row is not a halt instruction")
		}
		if last.Regs[R1] != sr.ExitCode {
			return fmt.Errorf("exit code %d does not match halting r1 %d", sr.ExitCode, last.Regs[R1])
		}
	} else {
		if last.PC != sr.Exit.PC || last.Regs != sr.Exit.Regs {
			return fmt.Errorf("last row does not match the exit state")
		}
		if last.InPtr != sr.Exit.InPtr-sr.Entry.InPtr {
			return fmt.Errorf("last row InPtr %d, exit cursor delta %d", last.InPtr, sr.Exit.InPtr-sr.Entry.InPtr)
		}
	}
	if int(last.JPtr) != len(sr.Journal) {
		return fmt.Errorf("journal length %d does not match final JPtr %d", len(sr.Journal), last.JPtr)
	}
	if int(last.MemPtr) != nMem {
		return fmt.Errorf("memory log length %d does not match final MemPtr %d", nMem, last.MemPtr)
	}

	if nMem > 0 {
		if err := verifyMemBoundary(v, alpha, gamma, nMem); err != nil {
			return err
		}
	} else if !sr.Final {
		// No accesses at all: the image cannot have changed.
		if sr.Exit.MemLen != sr.Entry.MemLen || sr.Exit.MemRoot != sr.Entry.MemRoot {
			return fmt.Errorf("memory image changed without any memory access")
		}
	}

	// --- Sampled checks. All applicable families share one count k
	// (the prover uses a single Checks); derive it from whichever
	// family is live and enforce agreement. ---
	k := 0
	requireK := func(name string, n int) error {
		if k == 0 {
			k = n
		}
		if n != k {
			return fmt.Errorf("inconsistent check counts: %s has %d, want %d", name, n, k)
		}
		if n == 0 {
			return fmt.Errorf("no %s checks", name)
		}
		if n < opts.MinChecks {
			return fmt.Errorf("seal has %d sampled checks, verifier requires %d", n, opts.MinChecks)
		}
		return nil
	}

	if nRows >= 2 {
		if err := requireK("exec", len(s.ExecChecks)); err != nil {
			return err
		}
		for n, i := range tr.ChallengeIndices("exec", len(s.ExecChecks), nRows-1) {
			if err := verifyExecCheck(prog, v, &s.ExecChecks[n], i, sr.Journal); err != nil {
				return fmt.Errorf("exec check %d (row %d): %v", n, i, err)
			}
		}
	} else if len(s.ExecChecks) != 0 {
		return fmt.Errorf("unexpected execution checks")
	}

	if nMem >= 2 {
		if err := requireK("prod", len(s.ProdChecks)); err != nil {
			return err
		}
		if err := requireK("sort", len(s.SortChecks)); err != nil {
			return err
		}
		for n, i := range tr.ChallengeIndices("prod", len(s.ProdChecks), nMem-1) {
			if err := verifyProdCheck(v, &s.ProdChecks[n], i, alpha, gamma); err != nil {
				return fmt.Errorf("product check %d (entry %d): %v", n, i, err)
			}
		}
		for n, i := range tr.ChallengeIndices("sort", len(s.SortChecks), nMem-1) {
			if err := verifySortCheck(v, &s.SortChecks[n], i, alpha, gamma); err != nil {
				return fmt.Errorf("sorted check %d (entry %d): %v", n, i, err)
			}
		}
	} else if len(s.ProdChecks) != 0 || len(s.SortChecks) != 0 {
		return fmt.Errorf("unexpected memory checks")
	}

	// --- Continuation families. ---
	if sr.Entry.MemLen > 0 {
		if err := requireK("import", len(sr.ImportChecks)); err != nil {
			return err
		}
		for n, i := range tr.ChallengeIndices("import", len(sr.ImportChecks), int(sr.Entry.MemLen)) {
			if err := verifyImportCheck(v, &sr.ImportChecks[n], i); err != nil {
				return fmt.Errorf("import check %d (image word %d): %v", n, i, err)
			}
		}
	} else if len(sr.ImportChecks) != 0 {
		return fmt.Errorf("unexpected import checks")
	}

	if !sr.Final && sr.Exit.MemLen > 0 {
		if err := requireK("exit", len(sr.ExitChecks)); err != nil {
			return err
		}
		for n, j := range tr.ChallengeIndices("exit", len(sr.ExitChecks), int(sr.Exit.MemLen)) {
			if err := verifyExitCheck(v, &sr.ExitChecks[n], j); err != nil {
				return fmt.Errorf("exit check %d (image word %d): %v", n, j, err)
			}
		}
	} else if len(sr.ExitChecks) != 0 {
		return fmt.Errorf("unexpected exit checks")
	}

	if !sr.Final && nMem > 0 {
		if err := requireK("cover", len(sr.CoverChecks)); err != nil {
			return err
		}
		for n, i := range tr.ChallengeIndices("cover", len(sr.CoverChecks), nMem) {
			if err := verifyCoverCheck(v, &sr.CoverChecks[n], i); err != nil {
				return fmt.Errorf("cover check %d (sorted entry %d): %v", n, i, err)
			}
		}
	} else if len(sr.CoverChecks) != 0 {
		return fmt.Errorf("unexpected cover checks")
	}
	return v.authenticate()
}

// segmentVerifier is one segment under verification: the receipt and,
// per tree, the leaves its checks have read, which the tree's
// multiproof must authenticate once the check walk is done.
type segmentVerifier struct {
	*SegmentReceipt
	opened [numTrees][]*Opening
}

// col returns tree k as a column that records the leaves it hands out.
func (v *segmentVerifier) col(k int) column {
	s := &v.Seal
	var c column
	switch k {
	case proofExec:
		c = column{root: s.ExecRoot, n: int(s.NumRows), recBytes: rowBytes, witnessed: true}
	case proofMemProg:
		c = column{root: s.MemProgRoot, n: int(s.NumMem), recBytes: memBytes}
	case proofMemSort:
		c = column{root: s.MemSortRoot, n: int(s.NumMem), recBytes: memBytes}
	case proofProdProg:
		c = column{root: s.ProdProgRoot, n: int(s.NumMem), recBytes: prodBytes}
	case proofProdSort:
		c = column{root: s.ProdSortRoot, n: int(s.NumMem), recBytes: prodBytes}
	case proofEntry:
		c = column{root: v.Entry.MemRoot, n: int(v.Entry.MemLen), recBytes: imgBytes}
	case proofExit:
		c = column{root: v.Exit.MemRoot, n: int(v.Exit.MemLen), recBytes: imgBytes}
	}
	c.opened = &v.opened[k]
	return c
}

// authenticate checks each tree's multiproof against the leaves the
// check walk read from it; a tree no check read carries an empty one.
// The trees are independent, so they are checked side by side on
// par.Workers() goroutines; any failure rejects the whole segment, and
// the first in tree order is the one reported.
func (v *segmentVerifier) authenticate() error {
	var errs [numTrees]error
	par.Each(par.Workers(), numTrees, func(k int) {
		if len(v.opened[k]) == 0 {
			if n := len(v.Proofs[k].Nodes); n != 0 {
				errs[k] = fmt.Errorf("%s multiproof: %d nodes and no opened leaf", treeNames[k], n)
			}
			return
		}
		if err := v.col(k).authenticate(v.Proofs[k]); err != nil {
			errs[k] = fmt.Errorf("%s multiproof: %v", treeNames[k], err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyImportCheck: program-order log entry i must be the synthetic
// import write of entry-image pair i.
func verifyImportCheck(v *segmentVerifier, c *ImportCheck, i int) error {
	e, err := opened(v.col(proofMemProg), &c.MemProg, i, decodeMemEntry)
	if err != nil {
		return err
	}
	p, err := opened(v.col(proofEntry), &c.Img, i, decodeImagePair)
	if err != nil {
		return err
	}
	if !e.IsWrite || e.Step != importStep {
		return fmt.Errorf("log entry %d is not an import write", i)
	}
	if e.Seq != uint32(i) {
		return fmt.Errorf("import %d has sequence %d", i, e.Seq)
	}
	if e.Addr != p.Addr || e.Val != p.Val {
		return fmt.Errorf("import %d does not match the entry image", i)
	}
	return nil
}

// verifyExitCheck: exit-image pair j must be the value left by the
// last sorted-log access of its address (and nonzero). Last-ness
// follows from the opened successor having a different address, given
// the sorted-order invariant sampled by the sort family.
func verifyExitCheck(v *segmentVerifier, c *ExitCheck, j int) error {
	p, err := opened(v.col(proofExit), &c.Img, j, decodeImagePair)
	if err != nil {
		return err
	}
	if p.Val == 0 {
		return fmt.Errorf("exit image holds a zero value")
	}
	pos := int(c.Pos)
	if pos >= int(v.Seal.NumMem) {
		return fmt.Errorf("witness position %d outside the log", pos)
	}
	e, next, hasNext, err := sortedWithSuccessor(v, c.Sort, pos)
	if err != nil {
		return err
	}
	if e.Addr != p.Addr || e.Val != p.Val {
		return fmt.Errorf("witness access does not match the exit image")
	}
	if hasNext && next.Addr == e.Addr {
		return fmt.Errorf("witness access is not the last access of its address")
	}
	return nil
}

// verifyCoverCheck: if sorted-log entry i is the last access of its
// address and leaves a nonzero value, the exit image must contain it.
func verifyCoverCheck(v *segmentVerifier, c *CoverCheck, i int) error {
	ei, ej, hasNext, err := sortedWithSuccessor(v, c.Entries, i)
	if err != nil {
		return err
	}
	isLast := !hasNext || ej.Addr != ei.Addr
	if isLast && ei.Val != 0 {
		if !c.HasImg {
			return fmt.Errorf("live word %d missing from the exit image", ei.Addr)
		}
		p, err := opened(v.col(proofExit), &c.Img, int(c.ExitIdx), decodeImagePair)
		if err != nil {
			return err
		}
		if p.Addr != ei.Addr || p.Val != ei.Val {
			return fmt.Errorf("exit image entry does not cover the live word")
		}
	} else if c.HasImg {
		return fmt.Errorf("unexpected image opening")
	}
	return nil
}
