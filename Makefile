# Local entry points mirroring the CI jobs (.github/workflows/ci.yml calls
# these same targets, so the two cannot drift).

GO ?= go

.PHONY: all build test race benchsmoke bench figures examples fmt vet staticcheck docs-check fuzz cover ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs everything under the race detector, then ten times over the tests
# that share state between goroutines — the engine's live indexes between
# concurrent readers, writers and rule swaps, between lock-free report
# readers and the report a bulk load publishes, and between the pool tasks of
# one bulk load or full report build at every worker count, which a batch,
# applied op by op on its caller's goroutine, must match, and between the
# index builds of a swap or a bulk load at two workers, which share the
# relation and the live ids and each own their worker's scratch — roots and
# the refinements reading through them are built by different pool tasks, and
# a swap keeps its roots while readers walk them, and every swap builds every
# index of its new rules through the pool at workers 1 and 3 — and between a
# compaction, which streams its copy of the live rows and reads the engine's
# dictionaries unlocked, and the writers appending to them; the closed-set
# search's root
# candidates between its pooled branches, with and without a cancellation in
# flight, and the closed sets' blocks, which the pool tasks of FastCFD's
# difference-set table read at once after NewClosed built them beside the
# free-set pass, and the table, which its per-attribute searches read; CTANE's
# Steps 1-3, one pool task per run of elements with equal attribute sets,
# each reading the level below through the lattice links and writing only its
# own run's C+ sets; its join, one pool task per run of prefixes with equal
# attribute sets, each carving elements from its own worker's blocks, writing
# only its own prefixes' kids and their links and reading other prefixes'
# kids, with constPart's tuples gathered in the worker's own scratch; the
# product memory each worker carves from its own refiner's arena inside
# pool.Each; and the sort of each join task's share of the new level in
# place; a node's memory of its last full report
# between concurrent full readers, and its rule set and stats between
# GET /v1/rules and concurrent swaps: the detector only reports the
# interleavings a run executes. The script refuses a name no
# listed package has, so a renamed test cannot silently drop out.
race:
	$(GO) test -race ./...
	./scripts/race_repeat.sh 'TestConcurrentReadersAndWriters|TestReadersRaceBulkLoad|TestSwapRulesConcurrentReaders|TestApplyBatchMatchesPerOp|TestBatchReadsMembersAsOfItsOps|TestShardedBulkLoadAgrees|TestBuildMatchesInsert|TestSwapKeepsRoots|TestSwapRulesMatchesRebuild|TestStoreCompactUnderWrites|TestCompactRacingAppendsKeepsTailBytes|TestSnapshotStreamMatchesMarshal' ./violation
	./scripts/race_repeat.sh 'TestMineClosedWorkersIdentical|TestMineClosedCancelledMidSearch|TestMineContextCancelledMidPrelude|TestMineParallelMatchesSequential' ./internal/itemset ./internal/fastcfd
	./scripts/race_repeat.sh 'TestMineContextWorkersDeterministic|TestMineContextWorkersDeterministicMaxLHS|TestDiscoverWorkersIdentical|TestLatticeLinks|TestHeldTidsPerJoin|TestFDLatticeLevels|TestLatticeStepsObserveCancellation|TestAdvanceCancelledInsideJoin|TestMineAllocationsPerElement' ./internal/ctane
	./scripts/race_repeat.sh 'TestFullReadsMatchThePlainEncoder|TestRulesStatsMatchTheirSet' ./cmd/cfdserve

# benchsmoke runs every Go benchmark in the module once, a few seconds in
# all, so a benchmark that panics or rots fails the build. Its timings are
# not read: one iteration measures nothing.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench runs the repo benchmark BENCHMARK.json declares: cfddiscover and
# cfdserve end to end on four fixed-work workloads, repeated, with every
# output checked (bench/README.md). A failed check fails the target.
bench:
	bash bench/run.sh

# figures regenerates every figure of the paper's evaluation (§6) at laptop
# scale on one worker, as on the paper's testbed — shapes to eyeball against
# the paper, not numbers to gate on (README, "Reproducing the paper's figures").
figures:
	$(GO) run ./cmd/cfdbench -fig all -workers 1

# examples runs the example programs, a few seconds in all: nothing else
# executes them.
examples:
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./examples/datacleaning > /dev/null
	$(GO) run ./examples/objectidentification > /dev/null
	$(GO) run ./examples/scalability > /dev/null

fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools when installed; locally it degrades to
# a notice so the ci target works on machines without it, while the CI job
# installs the pinned version and fails on findings.
STATICCHECK ?= staticcheck
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# docs-check verifies every relative link in README.md / ARCHITECTURE.md
# (including #anchors against the target's headings) and the load-bearing
# cross-references between them and doc.go, then the metric catalogue in
# ARCHITECTURE.md against the names the source registers (both directions)
# and the naming conventions, then every Go name ARCHITECTURE.md, API.md and
# README.md write in backticks (`pkg.Name`, `pkg.Type.Member`, `Type.Member`)
# against what `go doc -u` finds in the module's packages. All three checks
# are static: no server runs.
docs-check:
	./scripts/check_doc_links.sh
	./scripts/check_metrics.sh
	./scripts/check_doc_idents.sh

# fuzz runs the fuzzers for a short CI-sized budget each — the codec round
# trips (the cfd text codec pair, the rules.Set JSON codec — which also holds
# every accepted set to one rule per canonical key and its rule file to the
# same fingerprint — the violation
# snapshot codec, which also holds the snapshot's appender and its one-pass
# reader to encoding/json), the decoders of a batch body and a WAL record
# against the encoding/json calls they stand in front of — same ops, same
# error text, for any bytes —
# the store's recovery under a seeded schedule of disk faults against the
# randomized oracle's replay of the acknowledged commits,
# the bulk /v1 reply encoders against json.Encoder on the same documents,
# hostile request sequences over the whole /v1 surface against a node and a
# coordinator over two shards, held to each other (FuzzServe: one input costs
# tens of milliseconds, so it minimizes each new input in at most ten runs),
# the shared group index against its from-scratch recount — two of its sets
# give every rule an LHS constant, so a build filters through the table of
# constants — and its
# refinements of a root against map-backed twins over the same rules, built
# or grown op by op (one input costs little, but minimizing a new one under
# the default budget took a whole 30 s run to a few hundred execs, so it too
# minimizes in at most ten runs),
# the partition product — either operand refined by the other's last item —
# against the direct scan partition.FromSet, the
# difference-set minimisation against its map-based reference and the CSV
# loader against the encoding/csv reader it replaced, read whole and in one-
# and seven-byte pieces; the corpus seeds also run as normal tests under
# `make test`.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./cfd -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./cfd -run '^$$' -fuzz '^FuzzFormat$$' -fuzztime $(FUZZTIME)
	$(GO) test ./rules -run '^$$' -fuzz '^FuzzJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./violation -run '^$$' -fuzz '^FuzzSnapshotRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./violation -run '^$$' -fuzz '^FuzzDecodeOps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./violation -run '^$$' -fuzz '^FuzzFaultSchedule$$' -fuzztime $(FUZZTIME)
	$(GO) test ./cluster -run '^$$' -fuzz '^FuzzWireDocs$$' -fuzztime $(FUZZTIME)
	$(GO) test ./cmd/cfdserve -run '^$$' -fuzz '^FuzzServe$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzGroupIndex$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/partition -run '^$$' -fuzz '^FuzzProduct$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/diffset -run '^$$' -fuzz '^FuzzMinimize$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/diffset -run '^$$' -fuzz '^FuzzBackendsAgree$$' -fuzztime $(FUZZTIME)
	$(GO) test ./dataset -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME)

# cover enforces ratcheted statement-coverage floors on the public rule type
# and its §2 measures (cfd), on the serving-critical
# packages (internal/core holds the engine's tuple store and group index;
# cluster the wire documents, their encoders and the coordinator — most of
# which only cmd/cfdserve's tests drive over real shard nodes, so its profile
# counts both packages' tests; obs the engine and store collectors, the
# metric registry and its Prometheus rendering;
# internal/jsonw the JSON appenders under the bulk replies, the snapshot and the
# WAL, and the reader under their decoders) and
# on the mining kernels (internal/partition: counting split and refinement;
# internal/itemset: free- and closed-set miners) and the searches built on
# them (internal/cfdminer; internal/ctane: the linked lattice; internal/diffset
# and internal/fastcfd: difference sets and the cover search; internal/fastfd,
# the FD search on the same difference sets; internal/tane, the FD search on
# CTANE's lattice), on the pool they
# fan out over (internal/pool), on the one loop they are read through
# (discovery), on the loader every program reads its input with (dataset),
# on the data-cleaning entry points over the engine (cleaning) and on the
# exhaustive search every miner is checked against (internal/bruteforce, the
# oracle of §2's minimal k-frequent covers).
# The floors only move up:
# raise them when coverage improves, and never lower them to make a failing
# build pass. One package:floor entry per line; each package's profile is
# cover_<last path element>.out.
COVER_FLOORS := \
	cfd:92.0 \
	violation:98.2 \
	rules:96.0 \
	discovery/monitor:90.0 \
	internal/core:98.5 \
	internal/partition:100.0 \
	internal/itemset:95.0 \
	internal/cfdminer:97.0 \
	internal/ctane:98.5 \
	internal/diffset:100.0 \
	internal/fastcfd:97.5 \
	internal/fastfd:100.0 \
	internal/tane:100.0 \
	internal/pool:98.5 \
	discovery:97.0 \
	cluster:89.0 \
	internal/jsonw:100.0 \
	dataset:92.0 \
	obs:93.0 \
	cleaning:89.0 \
	internal/bruteforce:89.0
COVER_PROFILES := $(foreach e,$(COVER_FLOORS),cover_$(notdir $(firstword $(subst :, ,$(e)))).out)
cover:
	@for e in $(COVER_FLOORS); do \
		pkg=$${e%%:*} floor=$${e#*:}; out=cover_$${pkg##*/}.out; \
		if [ $$pkg = cluster ]; then \
			$(GO) test -coverprofile=$$out -coverpkg=./cluster ./cluster ./cmd/cfdserve > /dev/null 2>&1; \
		else \
			$(GO) test -coverprofile=$$out ./$$pkg > /dev/null; \
		fi || exit 1; \
		./scripts/check_coverage.sh $$out $$floor $$pkg || exit 1; \
	done

ci: fmt vet staticcheck build race benchsmoke examples cover fuzz docs-check bench

clean:
	rm -rf .bench_build $(COVER_PROFILES)
