// Command zkflow-light is the light-client auditor: it trusts one
// pinned ledger checkpoint and, on every run, advances it to the
// operator's current head by verifying a ledger delta, a random
// sample of aggregation receipts, and an inclusion-proof spot check —
// downloading a small fraction of what the full auditor
// (zkflow-verify) fetches.
//
// First run (no state file) pins trust-on-first-use: the chosen
// checkpoint is validated, stored, and its digest printed so it can
// be compared out of band. Every later run verifies forward from the
// pin and refuses — loudly, with a non-zero exit — any history that
// does not extend it.
//
// Usage:
//
//	zkflow-light -server http://127.0.0.1:8471 -state light.json
//	zkflow-light -server ... -state light.json -pin-epoch 0   # pin a specific epoch
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"zkflow/internal/api"
	"zkflow/internal/lightsync"
	"zkflow/internal/statefile"
	"zkflow/internal/zkvm"
)

func main() {
	var (
		serverURL = flag.String("server", "http://127.0.0.1:8471", "zkflowd base URL")
		stateFile = flag.String("state", "zkflow-light.json", "pinned checkpoint state file")
		pinEpoch  = flag.Int64("pin-epoch", -1, "on first run, pin the checkpoint sealed for this epoch (-1 = latest)")
		samples   = flag.Int("samples", 0, "aggregation rounds to spot-verify (0 = server suggestion)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-request HTTP timeout")
	)
	flag.Parse()
	log.SetFlags(0)
	ctx := context.Background()
	client := api.New(*serverURL, api.WithTimeout(*timeout))

	st, pinned, err := loadOrPin(ctx, client, *serverURL, *stateFile, *pinEpoch)
	if err != nil {
		log.Fatalf("SYNC FAILED: %v", err)
	}
	if pinned {
		d := st.Checkpoint.Digest()
		fmt.Printf("pinned checkpoint (trust on first use): epoch %d, %d entries\n", st.Checkpoint.Epoch, st.Checkpoint.Count)
		fmt.Printf("  digest %s — compare this out of band before relying on it\n", hex.EncodeToString(d[:]))
	}

	rep, err := lightsync.Sync(ctx, client, st, lightsync.Options{
		Samples:   *samples,
		MinChecks: zkvm.DefaultChecks,
	})
	if err != nil {
		log.Fatalf("SYNC FAILED: %v", err)
	}
	if err := saveState(*stateFile, st); err != nil {
		log.Fatalf("state file: %v", err)
	}

	if rep.UpToDate {
		fmt.Printf("up to date at epoch %d (%d entries): no newer round to verify\n", rep.To.Epoch, rep.To.Count)
		return
	}
	fmt.Printf("SYNC VERIFIED: epoch %d -> %d (%d new entries across %d epochs)\n",
		rep.From.Epoch, rep.To.Epoch, rep.NewEntries, len(rep.NewEpochs))
	fmt.Printf("  receipts spot-verified: %d (rounds %v), weakest %.3g bits\n", len(rep.SampledRounds), rep.SampledRounds, rep.SoundnessBits)
	fmt.Printf("  inclusion proofs checked: %d\n", rep.ProofsChecked)
	fmt.Printf("  transfer: %d bytes\n", rep.Bytes)
	d := rep.To.Digest()
	fmt.Printf("  new pin: %d entries, digest %s\n", rep.To.Count, hex.EncodeToString(d[:]))
}

// loadOrPin loads the persisted pin, or establishes one
// trust-on-first-use. pinned reports whether this run created it.
func loadOrPin(ctx context.Context, client *api.Client, server, path string, pinEpoch int64) (st *lightsync.State, pinned bool, err error) {
	if buf, rerr := os.ReadFile(path); rerr == nil {
		st = new(lightsync.State)
		if err := json.Unmarshal(buf, st); err != nil {
			return nil, false, fmt.Errorf("state file %s: %w", path, err)
		}
		if err := st.Check(); err != nil {
			return nil, false, fmt.Errorf("state file %s: %w", path, err)
		}
		return st, false, nil
	} else if !os.IsNotExist(rerr) {
		return nil, false, rerr
	}
	if pinEpoch >= 0 {
		cp, err := client.CheckpointByEpoch(ctx, uint64(pinEpoch))
		if err != nil {
			return nil, false, err
		}
		st, err = lightsync.Pin(server, cp)
		if err != nil {
			return nil, false, err
		}
		return st, true, nil
	}
	cps, err := client.Checkpoints(ctx)
	if err != nil {
		return nil, false, err
	}
	if cps.Latest == nil {
		return nil, false, lightsync.ErrNoCheckpoint
	}
	st, err = lightsync.Pin(server, *cps.Latest)
	if err != nil {
		return nil, false, err
	}
	return st, true, nil
}

func saveState(path string, st *lightsync.State) error {
	buf, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return statefile.Write(path, func(w io.Writer) error {
		_, err := w.Write(append(buf, '\n'))
		return err
	})
}
