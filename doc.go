// Package zkflow is a pure-Go implementation of verifiable network
// telemetry without special-purpose hardware, reproducing An, Zhu,
// Miers and Liu, "Towards Verifiable Network Telemetry without
// Special Purpose Hardware" (HotNets '25).
//
// Routers commit to their raw NetFlow logs with periodic hash
// commitments on a public ledger; a prover aggregates the logs into a
// Merkle-committed combined log and answers SQL-style queries, both
// inside a zero-knowledge-oriented virtual machine whose receipts any
// third party can verify without seeing a single flow record.
//
// Start with examples/quickstart, then see DESIGN.md for the system
// inventory and EXPERIMENTS.md for the paper-versus-measured results.
// The benchmarks in bench_test.go regenerate the tables and figures of
// the paper's evaluation; `go run ./bench` is the reference benchmark
// every change is measured by (BENCHMARK.json).
package zkflow
