GO ?= go
GOFMT ?= gofmt
FUZZTIME ?= 10s
# The receipt targets mutate 15-50 KB inputs, and the checkpoint and
# emulator targets find new coverage every few execs; minimizing each
# new-coverage input for go's default 60 s would eat the whole FUZZTIME.
FUZZMINIMIZE ?= 20x

.PHONY: fmt build vet test race purego fuzz examples smoke check bench bench-e2e bench-parallel bench-commit guest-profile loc verify

# Format lane: fails, listing the files, when any Go file is not
# gofmt-clean.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race lane: the packages that fan work out across goroutines — the
# daemon's aggregator and its collection hand-off, the shared fan-out
# helpers, the prover's block-commit crew, the
# segmented (continuation) proving crew, the epoch batch (its window's
# concurrent seals and a query mid-batch), the metrics registry, the HTTP layer, the sharded UDP ingest
# pipeline, the checkpointing ledger plus the light-client sync that
# reads it, the STARK math kernel of the §7 ablation (shared
# twiddle/ladder caches, pooled scratch, LDE/composition/FRI chunked
# onto par.Each's crew), the slab pool every prover's scratch comes
# from, the record store under concurrent writers, the CLog's sub-tree
# roots hashed in parallel, the traffic generator's replay over a
# socket, and the NetFlow v9 template cache under concurrent decoders
# from more exporters than it holds.
race:
	$(GO) test -race ./cmd/zkflowd ./internal/par ./internal/zkvm ./internal/core ./internal/api ./internal/merkle ./internal/obs ./internal/netflow ./internal/ingest ./internal/ledger ./internal/lightsync ./internal/field ./internal/poly ./internal/fri ./internal/stark ./internal/fastagg ./internal/slab ./internal/store ./internal/clog ./internal/trafficgen

# Fallback lane: the SHA-256 compression kernel of internal/hashk runs
# on amd64 with SHA-NI, and everywhere else the same functions hash
# messages through sha256.Sum256 and tree nodes through a portable block
# function. Test the packages that hash through it with the kernel
# compiled out (the purego tag) — the node consumers too: the ledger
# frontier and core's stored chain — so the fallback stays checked
# against every fixture on a SHA-NI host, and vet the arm64 build,
# which never has the kernel.
purego:
	$(GO) test -tags purego ./internal/hashk ./internal/merkle ./internal/zkvm ./internal/ledger ./internal/core
	GOARCH=arm64 $(GO) vet ./...

# Fuzz lane: each network/storage-facing decoder gets a short
# randomized run on top of its committed seed + regression corpus,
# plus the NTT round-trip property (the vectorized kernel against the
# retained serial reference) and the offline memory check (fuzzed
# access sequences, whole and cut: the honest log and final table keep
# every rule and balance, and a change to one field of one entry or
# final record breaks a rule), plus the verify-level target: no
# mutation of a valid receipt, one segment or many, may panic or verify,
# plus the emulator core against the map-backed loops it replaced
# (fuzzed programs: same trace, same trap, monolithic and cut), plus the
# expansion of an opened exec leaf (arbitrary bytes under every guest
# program: no panic, no allocation to speak of, only canonical leaves
# expand), plus the aggregation guest against the host reference
# (seeded rounds of every merge shape, monolithic and cut: the journal
# is ReferenceAggregate's, word for word, and that of the independently
# written guest kept as a test reference in internal/guest/testdata),
# plus the hash kernel against sha256.Sum256 (two messages of one
# length, one lane and two, kernel on and off), plus the tree node
# against the midstate crypto/sha256 exports (Node, both HashLevel
# lanes and the portable block function, kernel on and off), plus what a light client
# reads of the ledger (served checkpoints, entry delta, inclusion proof:
# every check returns promptly, and an accepted extension is the honest
# checkpoint), plus the product columns (arbitrary logs, images and
# challenges: the log's ratio column, both image columns and every
# tuple's factor equal a longhand serial reference), plus the client's query-body decoder (arbitrary
# bodies: no panic, and an accepted body re-marshals byte for byte),
# plus the Merkle multiproof (arbitrary index sets and node lists
# against small trees: no panic, and an accepted multiproof is
# ProveMulti's own, so none has two spellings).
# `go test -fuzz` takes one target per invocation, so this is fifteen
# runs; budget with FUZZTIME (default 10s each).
fuzz:
	$(GO) test ./internal/zkvm -run='^$$' -fuzz=FuzzDecodeProgram -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/zkvm -run='^$$' -fuzz=FuzzUnmarshalReceipt -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZE)
	$(GO) test ./internal/zkvm -run='^$$' -fuzz=FuzzVerifyMutatedReceipt -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZE)
	$(GO) test ./internal/zkvm -run='^$$' -fuzz=FuzzMemoryCheck -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZE)
	$(GO) test ./internal/zkvm -run='^$$' -fuzz=FuzzGrandProduct -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/zkvm -run='^$$' -fuzz=FuzzExecuteMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZE)
	$(GO) test ./internal/zkvm -run='^$$' -fuzz=FuzzExpandExecLeaf -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/guest -run='^$$' -fuzz=FuzzAggregationMatchesReference -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/ingest -run='^$$' -fuzz=FuzzDatagram -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/poly -run='^$$' -fuzz=FuzzNTTRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/hashk -run='^$$' -fuzz=FuzzSumMatchesStdlib -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/hashk -run='^$$' -fuzz=FuzzNodeMatchesReference -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/merkle -run='^$$' -fuzz=FuzzMultiProof -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/ledger -run='^$$' -fuzz=FuzzCheckpoint -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZE)
	$(GO) test ./internal/api -run='^$$' -fuzz=FuzzDecodeQueryReceipt -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZE)

# Examples lane: every example end to end, about a second in all. Each
# exits nonzero when its scenario does not hold; tamper, when any of
# its attacks goes undetected.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/neutrality
	$(GO) run ./examples/sketches
	$(GO) run ./examples/sla
	$(GO) run ./examples/tamper

# Smoke lane: the three binaries end to end, a few seconds. It builds
# zkflowd, zkflow-verify and zkflow-light into a temporary directory,
# runs the daemon for three 200 ms epochs on a loopback port the kernel
# picks (read back from its log) and waits (at most 60 s) for its three
# rounds; then zkflow-verify, with a query, and zkflow-light, pinned at
# epoch 0, must each exit 0. The daemon is killed on every exit.
smoke:
	@set -e; dir=$$(mktemp -d); pid=; trap 'kill $$pid 2>/dev/null; rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir" ./cmd/zkflowd ./cmd/zkflow-verify ./cmd/zkflow-light; \
	"$$dir/zkflowd" -listen 127.0.0.1:0 -epochs 3 -interval 200ms >"$$dir/zkflowd.log" 2>&1 & pid=$$!; \
	n=0; until [ $$(grep -c ' flows, receipt ' "$$dir/zkflowd.log") -ge 3 ]; do \
		n=$$((n+1)); if [ $$n -gt 300 ] || ! kill -0 $$pid 2>/dev/null; then \
			echo "smoke: zkflowd did not serve three rounds"; cat "$$dir/zkflowd.log"; exit 1; fi; \
		sleep 0.2; done; \
	cat "$$dir/zkflowd.log"; \
	url=$$(sed -n 's|.*zkflowd listening on \(http://[^ ]*\) .*|\1|p' "$$dir/zkflowd.log"); \
	"$$dir/zkflow-verify" -server $$url -query 'SELECT COUNT(*) FROM clogs WHERE dropped > 0;'; \
	"$$dir/zkflow-light" -server $$url -state "$$dir/light.json" -pin-epoch 0

# The default pre-merge gate. The format lane runs first and the fuzz
# lane last, so the cheap deterministic checks fail fast; the smoke
# lane runs the three binaries after the examples.
check: fmt build vet test race purego examples smoke fuzz

# The paper's figures and the DESIGN §5 ablations, one pass each (the
# table at the head of EXPERIMENTS.md maps entries to functions).
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# The repository's reference benchmark (BENCHMARK.json): the four
# datagram -> verified-receipt workloads, 20 s measured each. See
# bench/README.md for -trace 1 (layer budget), -sets and -json.
bench-e2e:
	$(GO) run ./bench

# What the guests cost the seal, phase by phase: trace rows, memory-log
# entries and 0.75n + 2.5m compressions per record for the aggregation guest
# on the benchmark's steady-state round (the epoch-1k guest), with that
# round's dynamic opcode mix and its SysHash compression count, and per
# CLog entry for the six query shapes. Exact counts, the same on every
# host; the tests that print them are the tier-1 budget gate
# (EXPERIMENTS.md E25).
guest-profile:
	$(GO) test ./internal/guest -run='CostBudget' -count=1 -v

# The prover-crew / epoch-batch benchmarks behind the determinism tests.
# Crew width, and so the batch window, is GOMAXPROCS, so -cpu sets it.
bench-parallel:
	$(GO) test -bench='ProveParallel|AggregateEpochs' -cpu 1,2,4 -run=^$$ .

# Commit-path benchmarks with allocation counts: the zero-allocation
# hash kernel (raw compression in ns/block, one lane and two; a tree
# level in ns/node), the seal's block commit (salt + encode + leaf-hash +
# reduce one 1024-leaf, 4096-record block; one sub-benchmark per record
# shape — exec/mem/prod/image — with SHA-256 compressions and bytes
# hashed per record next to ns/record), the emulator alone (mono /
# segmented, ns per trace row), the Merkle arena build, the
# NTT kernel, and the whole prover; the Merkle build and the prover run
# at -cpu 1, the serial crew. Compare against the allocs/op recorded in
# EXPERIMENTS.md E14.
bench-commit:
	$(GO) test -bench='Compress|HashLevel' -benchmem -run=^$$ ./internal/hashk
	$(GO) test -bench='CommitBlock|Execute' -benchmem -run=^$$ ./internal/zkvm
	$(GO) test -bench='BuildHashes|Build1024' -benchmem -cpu 1 -run=^$$ ./internal/merkle
	$(GO) test -bench='NTT65536|Butterflies' -benchmem -run=^$$ ./internal/poly ./internal/field
	$(GO) test -bench=ProveParallel -benchmem -cpu 1 -run=^$$ .

# Non-test Go lines, by the one definition ROADMAP aim 2 counts with:
# the whole repo, then the paper's §7 STARK stack alone.
STARK_STACK = internal/stark internal/fri internal/poly internal/air internal/gperm internal/fastagg
loc:
	@find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@echo "§7 STARK stack: $$(find $(STARK_STACK) -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"

verify: build vet test race
