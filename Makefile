GO ?= go

.PHONY: ci build vet fmtcheck lint test race shard-equiv fabstore-equiv perfbench-check fuzz-smoke shard-speedup scale-smoke bench-smoke examples-smoke

# ci is the tier-1 gate: build, vet, the invariant lint pass, the full
# suite under the race detector, the sharded-equivalence crown jewel
# under -race, a vet-and-test pass over the nested perfbench module, a
# short fuzzing pass over the flit codec, and a smoke run of every
# example binary. Run it before
# every push. bench-smoke rides along non-gating (the leading `-`): a
# crash in a benchmark prints loudly but does not fail the gate, since
# timing noise must never block a merge.
ci: build vet lint race shard-equiv fabstore-equiv perfbench-check fuzz-smoke examples-smoke
	-@$(MAKE) --no-print-directory bench-smoke || echo "bench-smoke FAILED (non-gating)"
	-@$(MAKE) --no-print-directory shard-speedup || echo "shard-speedup FAILED (non-gating)"
	-@$(MAKE) --no-print-directory scale-smoke || echo "scale-smoke FAILED (non-gating)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmtcheck fails if any file drifts from gofmt, listing the offenders.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt drift in:"; echo "$$out"; exit 1; fi

# lint is the determinism/engine-invariant gate: gofmt drift, go vet,
# and fcclint's analyzers (detban, maporder, procblock, errcmp,
# hotpath, concban, plus the interprocedural detflow, poolref and
# tiesort — see DESIGN.md "Simulator invariants"). -timing prints the
# load/analyze wall time and the per-analyzer breakdown on stderr, so a
# slow analyzer shows up in every CI log. fcclint also runs standalone:
#   go run ./cmd/fcclint ./...            # plain
#   go run ./cmd/fcclint -json ./...      # machine-readable findings
lint: fmtcheck vet
	$(GO) run ./cmd/fcclint -timing ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# shard-equiv is the parallel-determinism gate: the coordinator/mailbox
# unit tests (daemon timers included), the cut-link wire tests (link
# messages handed between domain goroutines), the cluster-level Stop,
# clock-after-Run, every-fault-kind injector, daemon-timer drain and
# sharded coherence/etrans and arbiter tests across shard counts, and
# the serial-vs-sharded byte-identical-snapshot suite,
# run under the race detector with -count=1 so a cached pass never
# masks a fresh data race in the window-barrier machinery. The sim leg
# runs at -cpu 1,4 and the link, root and exp legs pin GOMAXPROCS=4, so
# the worker-barrier path — and process coroutines resumed from worker
# goroutines — actually run under the race detector even on a 1-CPU
# runner (on a single-P runtime the coordinator falls back to
# sequential execution).
shard-equiv:
	$(GO) test -race -count=1 -cpu 1,4 -run 'Coordinator|Mailbox|Window' ./internal/sim/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestSwitchPathDeliversWireImage|TestLinkRetryReleasesDescriptors' ./internal/link/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestClusterClock|TestClusterStop|TestClusterInjectorShardEquiv|TestClusterDaemonTimersDrain|TestClusterShardedCoherenceETrans|TestClusterShardedArbiter' .
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestSharded' ./internal/exp/

# fabstore-equiv gates the E11 macro-benchmark's determinism claim: the
# same seed must produce byte-identical stats snapshots whether FabStore
# runs on one engine or sharded across 4 failure domains, clean and
# under the fault plan, with zero unaccounted transactions — under the
# race detector, like shard-equiv.
fabstore-equiv:
	$(GO) test -race -count=1 -run 'TestFabStoreEquiv' ./internal/exp/

# perfbench-check vets and tests the benchmark harness. perfbench is its
# own module, so the root `go build ./...` and `go test ./...` never
# enter it: without this step a change to fcc's public API could break
# the benchmark while every other gate stays green.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# fuzz-smoke fuzzes the flit byte codec for 10s per target: FuzzDecode
# (arbitrary flit bytes never panic the decoder; rejections are sentinel
# errors) and FuzzRoundTrip (valid packets survive Encode/Decode). Plain
# `go test` replays the seed corpus in internal/flit/testdata/fuzz; a
# failure found here is written there as a new regression input.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/flit/
	$(GO) test -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime 10s ./internal/flit/

# shard-speedup smoke-runs E12, the multi-pod scaling experiment: wall
# clock at 1/2/4/8 shards with the serial-vs-sharded equivalence check
# inline. Non-gating in ci (timing noise must never block a merge), but
# a `match false` line in its output is a determinism bug — report it.
shard-speedup:
	$(GO) run ./cmd/fccbench -exp shard-speedup -seed 1

# scale-smoke runs E13, the datacenter-scale sweep: boot and
# route-repair wall clock plus steady-state events/sec on generated
# fat-trees and a dragonfly, with the serial-vs-sharded and
# incremental-vs-full equivalence checks inline. Non-gating in ci
# (wall-clock noise must never block a merge), but any `false` in a
# match column is a determinism bug — report it.
scale-smoke:
	$(GO) run ./cmd/fccbench -exp scale -seed 1

# bench-smoke compiles and executes every benchmark for 100 iterations —
# just enough to catch panics and broken invariants, cheap enough for ci.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=100x ./... > /dev/null

# examples-smoke builds and runs every example end to end; each is a
# short deterministic simulation, so a non-zero exit is a real break.
examples-smoke:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done
