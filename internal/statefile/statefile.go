// Package statefile replaces a client's state file without ever
// leaving a truncated one behind.
//
// The auditor (zkflow-verify -state) and the light client
// (zkflow-light -state) keep the trust they have built up in one small
// file each. Rewriting it in place loses that trust to a kill between
// the truncation and the last byte: the next run finds a short file, and
// a client that deletes it to recover also drops what the file guarded
// (the auditor's REGRESSED check, the light client's pin).
package statefile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces the file at path with what write produces. The bytes
// go to a temporary file in the same directory, which is synced and
// closed and only then renamed over path, so at every moment path holds
// either its old contents or all of the new ones. On any error the old
// file is left as it was and the temporary file is removed.
func Write(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = f.Chmod(0o644)
	if err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
