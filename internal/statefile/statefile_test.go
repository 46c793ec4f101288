package statefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"zkflow/internal/core"
	"zkflow/internal/ledger"
)

// cutWriter passes the first n bytes through and fails on the rest: a
// process killed after writing n bytes of its state.
type cutWriter struct {
	w io.Writer
	n int
}

var errCut = errors.New("cut")

func (c *cutWriter) Write(p []byte) (int, error) {
	if len(p) <= c.n {
		c.n -= len(p)
		return c.w.Write(p)
	}
	n, _ := c.w.Write(p[:c.n])
	c.n = 0
	return n, errCut
}

// auditorState is an auditor's state file that has verified rounds.
func auditorState(t *testing.T, rounds uint64) (*core.Verifier, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := core.NewVerifier(ledger.New()).SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint64(b[4:], rounds)
	b[20] = byte(rounds) // a trusted root of its own
	v, err := core.LoadVerifier(bytes.NewReader(b), ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	return v, b
}

// TestWriteCutAtEveryOffset: a state write cut after any number of
// bytes fails and leaves the previous state file in place, byte for
// byte, loadable, and alone in its directory; the uncut write replaces
// it.
func TestWriteCutAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "auditor.state")
	_, old := auditorState(t, 2)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	next, want := auditorState(t, 5)
	for k := 0; k < len(want); k++ {
		err := Write(path, func(w io.Writer) error { return next.SaveState(&cutWriter{w: w, n: k}) })
		if !errors.Is(err, errCut) {
			t.Fatalf("write cut after %d bytes: %v", k, err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, old) {
			t.Fatalf("cut after %d bytes: the state file now holds %d bytes (%v)", k, len(got), err)
		}
		v, err := core.LoadVerifier(bytes.NewReader(got), ledger.New())
		if err != nil || v.Rounds() != 2 {
			t.Fatalf("cut after %d bytes: the previous state no longer loads: %v", k, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("cut after %d bytes: %d files left in the directory", k, len(entries))
		}
	}
	if err := Write(path, next.SaveState); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the whole write left %d bytes, want %d (%v)", len(got), len(want), err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("state file mode %v (%v)", fi.Mode(), err)
	}
}

// TestWriteIntoMissingDirectory fails without touching anything.
func TestWriteIntoMissingDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gone", "state")
	if err := Write(path, func(w io.Writer) error { _, err := w.Write([]byte("x")); return err }); err == nil {
		t.Fatal("wrote into a directory that does not exist")
	}
}
