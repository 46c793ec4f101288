package zkvm

import (
	"os"
	"runtime"
	"testing"
)

// TestMain takes the process's first garbage collection before any test
// runs. That cycle starts the runtime's background mark workers, which
// costs ten or more mallocs; landing inside an AllocsPerRun window it
// fails the allocation gates (TestCommitTablesConstantAllocs read "6 per
// run at 4096 rows and 8 at 32768" in 47 of 60 race-detector runs, where
// the 4 MB first-GC trigger falls in its second window, and in 0 of 60
// with this). Later cycles cost the gates nothing.
func TestMain(m *testing.M) {
	runtime.GC()
	os.Exit(m.Run())
}
