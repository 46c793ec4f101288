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
		if s.NumFinal != sr.Exit.MemLen || s.FinalRoot != sr.Exit.MemRoot {
			return fmt.Errorf("final table is not the exit image")
		}
	}

	tr := segmentStatement(sr)
	tr.Append("exec-root", s.ExecRoot[:])
	tr.Append("mem-root", s.MemRoot[:])
	tr.Append("final-root", s.FinalRoot[:])
	ch := newChallenges(tr.ChallengeElem("alpha"), tr.ChallengeElem("gamma"))
	tr.Append("logprod-root", s.LogProdRoot[:])
	tr.Append("finalprod-root", s.FinalProdRoot[:])
	tr.Append("initprod-root", s.InitProdRoot[:])

	// --- Boundary rows: entry binding replaces the initial-state rule,
	// exit binding (or the halt rule) replaces the final-state rule. ---
	first, err := v.col(proofExec).row(prog, &s.FirstRow, 0)
	if err != nil {
		return fmt.Errorf("first row: %v", err)
	}
	if first.PC != sr.Entry.PC || first.Regs != sr.Entry.Regs {
		return fmt.Errorf("first row does not match the entry state")
	}
	if first.MemPtr != 0 || first.InPtr != 0 || first.JPtr != 0 {
		return fmt.Errorf("first row cursors not rebased to the segment")
	}
	last, err := v.col(proofExec).row(prog, &s.LastRow, nRows-1)
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
	if err := v.verifyEnds(&ch); err != nil {
		return err
	}

	// --- Sampled checks: four families over the relations of exec
	// rows, the log, the final table and the entry image. All share one
	// count k (the prover uses a single Checks); it is derived from
	// whichever family is live first and enforced on the rest. ---
	check := [numFamilies]func(n, i int) error{
		func(n, i int) error { return verifyExecCheck(prog, v, &s.ExecChecks[n], i, sr.Journal) },
		func(n, i int) error { return v.verifyMemCheck(&s.MemChecks[n], i, &ch) },
		func(n, j int) error { return v.verifyFinalCheck(&s.FinalChecks[n], j, &ch) },
		func(n, j int) error { return v.verifyInitCheck(&s.InitChecks[n], j, &ch) },
	}
	k := 0
	for f, fam := range sr.families() {
		if fam.domain < 1 {
			if fam.checks != 0 {
				return fmt.Errorf("unexpected %s checks", fam.name)
			}
			continue
		}
		if k == 0 {
			k = fam.checks
		}
		switch {
		case fam.checks != k:
			return fmt.Errorf("inconsistent check counts: %s has %d, want %d", fam.name, fam.checks, k)
		case k == 0:
			return fmt.Errorf("no %s checks", fam.name)
		case k < opts.MinChecks:
			return fmt.Errorf("seal has %d sampled checks, verifier requires %d", k, opts.MinChecks)
		}
		for n, i := range tr.ChallengeIndices(fam.name, k, fam.domain) {
			if err := check[f](n, i); err != nil {
				return fmt.Errorf("%s check %d (%s %d): %v", fam.name, n, fam.unit, i, err)
			}
		}
	}
	return v.authenticate()
}

// family is one sampled-check family of a segment: its transcript
// label, what it samples (a row's transition, a product column's step),
// the number of those relations and how many checks the seal carries.
type family struct {
	name, unit     string
	domain, checks int
}

// The families, in the order the prover opens and the verifier walks
// them.
const numFamilies = 4

// families lists the segment's sampled-check families: exec samples a
// transition of the rows, mem a step of the log's ratio column, final
// an adjacency of the final table with its column's step, init a step
// of the entry image's column. A domain below one is a family with
// nothing to sample.
func (sr *SegmentReceipt) families() [numFamilies]family {
	s := &sr.Seal
	return [numFamilies]family{
		{"exec", "row", int(s.NumRows) - 1, len(s.ExecChecks)},
		{"mem", "step", int(s.NumMem) - 1, len(s.MemChecks)},
		{"final", "step", int(s.NumFinal) - 1, len(s.FinalChecks)},
		{"init", "step", int(sr.Entry.MemLen) - 1, len(s.InitChecks)},
	}
}

// segmentVerifier is one segment under verification: the receipt and,
// per tree, the leaves its checks have read, which the tree's
// multiproof must authenticate once the check walk is done. recs,
// entries and replay are the exec checks' scratch, reused check to
// check.
type segmentVerifier struct {
	*SegmentReceipt
	opened  [numTrees][]*Opening
	recs    [][]byte
	entries []MemEntry
	replay  replayEnv
}

// col returns tree k as a column that records the leaves it hands out.
func (v *segmentVerifier) col(k int) column {
	s := &v.Seal
	var c column
	switch k {
	case proofExec:
		c = column{root: s.ExecRoot, n: int(s.NumRows), recBytes: rowBytes, witnessed: true}
	case proofMem:
		c = column{root: s.MemRoot, n: int(s.NumMem), recBytes: memBytes}
	case proofLogProd:
		c = column{root: s.LogProdRoot, n: int(s.NumMem), recBytes: prodBytes}
	case proofFinal:
		c = column{root: s.FinalRoot, n: int(s.NumFinal), recBytes: imgBytes}
	case proofFinalProd:
		c = column{root: s.FinalProdRoot, n: int(s.NumFinal), recBytes: prodBytes}
	case proofEntry:
		c = column{root: v.Entry.MemRoot, n: int(v.Entry.MemLen), recBytes: imgBytes}
	case proofInitProd:
		c = column{root: s.InitProdRoot, n: int(v.Entry.MemLen), recBytes: prodBytes}
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
