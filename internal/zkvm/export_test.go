package zkvm

// Test-only exports for package zkvm_test, which — unlike the
// in-package tests — can import internal/guest without a cycle.

// RunMachine runs one use of the emulator to completion, releases
// what it traced, and reports the segments cut. cut == 0 never cuts.
func RunMachine(prog *Program, input []uint32, cut int) (segs int, err error) {
	m := newMachine(prog, input, cut)
	err = m.run(0)
	releaseSegments(m.segs)
	if err != nil {
		return 0, err
	}
	return len(m.segs), nil
}

// CheckAgainstReference exposes the differential check of
// machine_test.go.
var CheckAgainstReference = checkAgainstReference

// ReferenceCuts are the segment lengths the differential tests sweep.
var ReferenceCuts = referenceCuts

// CheckExecLeaves exposes the exec-leaf round trip of execleaf_test.go.
func CheckExecLeaves(prog *Program, input []uint32, cut int) error {
	_, err := checkExecLeaves(prog, input, cut)
	return err
}

// ExecLeaves and CheckHostileExecLeaf are the seeds and the property of
// FuzzExpandExecLeaf.
var (
	ExecLeaves           = execLeaves
	CheckHostileExecLeaf = checkHostileExecLeaf
)

// OpMax is one past the highest opcode number.
const OpMax = opMax
