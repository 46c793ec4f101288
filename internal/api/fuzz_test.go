package api

import (
	"bytes"
	"context"
	"testing"

	"zkflow/internal/core"
	"zkflow/internal/ledger"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
)

// FuzzDecodeQueryReceipt drives the client's query-body decoder with
// arbitrary bytes: it never panics, and a body it accepts is a
// canonical receipt encoding, so it re-marshals to the same bytes.
func FuzzDecodeQueryReceipt(f *testing.F) {
	const sql = "SELECT COUNT(*) FROM clogs;"
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 1, NumFlows: 8, Routers: 2}, st, lg)
	prover := core.NewProver(st, lg, core.Options{Checks: 2})
	if _, err := sim.RunEpoch(context.Background(), 0, 4); err != nil {
		f.Fatal(err)
	}
	agg, err := prover.AggregateEpoch(0)
	if err != nil {
		f.Fatal(err)
	}
	qr, err := prover.Query(sql)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := qr.Receipt.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	aggBin, err := agg.Receipt.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add(aggBin) // a receipt, but not a query journal
	f.Add([]byte(`{"sql":"` + sql + `","receipt":""}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		_, receipt, err := decodeQueryReceipt(sql, body)
		if err != nil {
			return
		}
		out, err := receipt.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted receipt failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, body) {
			t.Fatalf("re-encode mismatch: %d bytes in, %d out", len(body), len(out))
		}
	})
}
