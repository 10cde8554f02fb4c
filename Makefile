GO ?= go

.PHONY: check build test vet race cpu1 benchtest detsmoke identity relaycov expsmoke fuzzsmoke statesmoke shardsmoke experiments loc

check: vet race cpu1 detsmoke relaycov benchtest expsmoke fuzzsmoke statesmoke shardsmoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet first runs the go/ast check that every exported function or method of
# internal/ has a program caller or a reason on its allow-list
# (exports_test.go), so a test-only export fails in seconds.
# benchmark/ is a nested module, invisible to `go vet ./...`; vetting it is
# what notices a deprecated shim that no longer matches what benchmark/ sets.
# `gofmt -l .` walks both modules; any file it lists fails the target.
vet:
	$(GO) test -count=1 -run 'TestExportsHaveProgramCallers|TestTestOnlyExportsFixture' .
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "vet: gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...

race:
	$(GO) test -race ./...

# cpu1 runs the crypto, signing and workload packages at GOMAXPROCS 1. A
# single-CPU host now takes the same crypto-pool path as the benchmark host
# (client signatures deferred to the shared pool, batch verification fanned
# out to it); this target proves that path works, and gives the same
# results, with one CPU.
CPU1_PKGS = ./internal/keys/ ./internal/types/ ./internal/relay/ ./internal/universe/ ./internal/workload/
cpu1:
	$(GO) test -cpu 1 $(CPU1_PKGS)

# benchtest runs the tests of the repository benchmark (benchmark/ is a
# nested module, so `go test ./...` at the root does not reach them).
benchtest:
	$(GO) test -C benchmark ./...

# detsmoke runs the seeded cross-GOMAXPROCS (1, 2, NumCPU) determinism
# checks for the parallel crypto pool (sender recovery of a block mixing
# memoized, fresh and forged transactions), the workload signing pipeline
# (the Kitties cell, pinned to a digest),
# ApplyBlock (fuzz traffic pinned to a digest), batch selection against its
# first implementation, and the sharded universe (16-chain policy-on scaling
# cell, pinned to a digest): bit-identical results at every worker count.
# The fault-heavy cells are pinned to digests too — the chaos and Byzantine
# Move cells, and a ten-validator cluster under drops, duplicates, reorders,
# tampering, a partition, a crash-restart and an equivocator — so a change to
# the consensus or WAN hot paths that moves one simulated event fails here.
# It pins signing to RFC 6979's known answer
# (a signature is a pure function of key and digest) and a state commit that
# never waits on the crypto pool, and it also holds the Move-cost pins:
# consensus vote tables bounded by the current height and allocation-free, a
# reverted Move2 restoring the stale copy exactly, a contract returning home
# without the slots deleted abroad, and the bulk tree constructors every Move
# and every rebuild goes through — indistinguishable from a Set loop (root,
# proofs, later writes), refusing runs that are not strictly ascending, and
# constant in allocations. A Move2 prepared off the event loop from the
# moment BuildMove2 builds its payload must apply exactly as one computed
# at apply (receipts, gas, error text, roots, and an installed storage that
# reads back as a Set loop over the payload; MPT ↔ IAVL and IAVL → IAVL),
# only a Move2 with the same source chain and storage entries may take the
# preparation, and the preparation itself must fail and install exactly as
# VerifyMove2 and ApplyMove2 do. The Move timeline of 24 Moves MPT ↔ IAVL on
# the file backend is pinned to a digest. A client's transaction is admitted
# while its deferred signature is still queued and proposed only once it
# landed, a failed signature stays failed, and every transaction the Kitties
# cell and the 16-chain sharded cell commit recovers to its From through a
# full ECDSA verification (no memo). ApplyBlock recovers a block's senders
# before it takes the chain lock, so a reader never waits on the crypto
# pool. The repository benchmark's seed-1 kitties_replay round 0 and
# move_store first-256 digest are pinned in the main module. A committed
# block's transactions, a Move2 payload included, are unreachable once ApplyBlock
# and its listeners return, and a universe's counters report its client
# blocking on a full crypto pool and on encoding a transaction whose
# signature has not landed. The process-wide table of synthetic user
# addresses, grown in uneven steps across a batch boundary, matches a fresh
# key derivation entry for entry. A Move's storage path allocates only what
# it keeps: a warm file-store walk of a 1000-slot contract allocates nothing
# and eight concurrent walks list what a serial one lists, the Move2 payload
# of an evicted contract is one slice of exactly its slot count, an MPT node
# carries no child array outside a branch (at most 112 bytes) and Build of
# 1000 slots allocates at most 60 % of what the inline-array layout did,
# the retained-root history slides in place once its window is full, and a
# Move2 home's commit over a stale file-store copy allocates the same bytes
# at 500 and at 2 000 slots. A block that takes a Move2 preparation whose
# payload was edited after BuildMove2 panics under go test, and so does a
# transaction edited after it was signed, where a pool admits it and where
# a block applies it.
# A Move2 home ships a delta against the target's stale copy: a ping-pong
# with 0, 1, 10 and 100 % of the slots written abroad leaves the same
# storage, storage root, Lc, move nonce and Move2 gas at home as the full
# payload a pruned copy forces, and a delta home — the build that reads
# both copies, its preparation and a block's taking of it — does not
# allocate per slot. A file-store commit
# whose segment write fails leaves the index, the byte counts and the root
# as they were.
# A delta Move2 home is k SSTOREs on the target's copy: a one-entry home
# builds the same tree nodes at 500 and 2 000 slots — none over a resident
# copy, one stub's over a copy eviction shrank to hash stubs — on MPT and
# IAVL targets from either kind, and reads the copy whole once, in the
# relayer's build, which hands it to the preparation. A delta one gas short
# reads as many slots at 500 as at 2 000 before it is refused. A same-kind
# delta is refused by the copy's updated root with VerifyMove2's errors, and
# the revert restores the copy. An evicted tree keeps at most
# 9·n/StubEntries nodes; a write into a stub whose slots the file store no
# longer holds as committed panics naming the contract, and so does a
# whole-tree rebuild whose root is not the committed storage root. The
# backend conformance script runs again with contracts of up to 100 slots,
# whose evicted trees shrink to stubs, and must match the in-memory trees.
# Consensus over TCP encodes a message once per broadcast, writes every peer
# the frame bytes a per-peer Send always wrote (the message encodings are
# pinned too), and decodes a proposal frame
# in place; a simulated-WAN Broadcast allocates nothing, and a node's own
# proposal is applied from its transactions only while they still encode to
# the decided bytes; a connection's reader allocates its frames' bodies and
# nothing else. A ten-validator cluster commits a steady-state height —
# proposal, votes, deliveries, round and next-height timers — without
# allocating (the cluster probe: 189 deliveries per height, 0.000
# allocations per delivery over 1 000 heights), and so does a relayer's
# poll of the target's light client.
#
# The safety oracle (internal/oracle) runs after every committed block of
# five of these cells — chaos, byzantine, the 16-chain sharded cell, Kitties
# and the Move ping-pong timeline — and fails the cell if a contract is
# unlocked on two chains, appears on a chain its locked copy's Lc does not
# name, or moves at a nonce that does not grow; the cells' digests hold with
# it attached.
#
# Every digest cell but the sharded one pins the sha256 of its block journal
# (internal/journal, DESIGN §18): one line per committed block per chain
# (written by the oracle's block listener in the universe cells), then the
# cell's tail lines. A cross-GOMAXPROCS or metrics on/off comparison that
# parts prints the first differing line; a moved pin prints the first line
# where the run parts from the journal the last passing run left under
# os.TempDir()/scmove-journal/. Each digest test also logs a state digest:
# the journal with each block line's hash and receipts fields replaced by a
# digest of the receipts without their tx ids. It stays where only the
# bytes of the transactions moved. The journal's own tests
# pin its line format on a hand-built two-block chain, its first-difference
# report, and which edits move which digest.
#
# `go test -run 'A|B'` passes when a name matches nothing, so the target
# first checks every listed name against `go test -list`: a test that is
# deleted, renamed or misspelt fails the gate instead of narrowing it.
DETSMOKE_TESTS = TestBuildMatchesIncremental TestBuildRefusesBadRuns \
	TestBuildAllocsAreConstant TestCommitDoesNotWaitOnSharedPool \
	TestVoteTablesBoundedByCurrentHeight TestCommittedBodiesNotRetained \
	TestOnVoteSteadyStateZeroAllocs \
	TestRevertedMove2RestoresStaleCopy TestMoveHomeDropsSlotsDeletedAbroad \
	TestVerifyBatchMatchesSerial TestRecoverSendersMatchesSerialAcrossGOMAXPROCS \
	TestSignRFC6979KnownAnswer TestRecoverSendersMixedBlockMatchesSerial \
	TestApplyBlockParallelDeterminism TestApplyBlockFuzzTraffic \
	TestNextBatchPreservesFIFO TestKittiesReplayCrossGOMAXPROCSDeterminism \
	TestChaosCellCrossGOMAXPROCS TestByzantineDeterminism TestFaultyClusterDigest \
	TestBackendConformanceDifferential TestShardedScalingCrossGOMAXPROCSDeterminism \
	TestPreparedMove2MatchesInline TestPreparedMove2MatchesVerifyAndApply \
	TestExpectedMove2MatchesInline TestExpectedMove2MatchesByContent \
	TestMovePingPongDigest TestAdmittedWhileSignatureQueued \
	TestFailedSignatureIsKept TestCommittedSignaturesVerify \
	TestLoopWaitCountsPoolAndEncode TestUserAddressesMatchDerivation \
	TestApplyBlockRecoversSendersOutsideLock TestKittiesReplayRound0 \
	TestMoveStoreFirst256 TestVerifyMemoConcurrentMatchesSerial \
	TestIterateStorageWarmAllocFree TestIterateStorageConcurrentReaders \
	TestStorageEntriesOfEvictedContractAllocOnce TestNodeLayout TestBuildBytes \
	TestHistoryRecordAllocFreeOnceFull TestHistoryWindow \
	TestSetStorageAllocatesOnlyTreeCopies TestSteadyStateCommitAllocatesOnlyTreeWork \
	TestTransferAndStaticCallAllocateNoEVM TestRecycledHistoryMatchesSnapshots \
	TestBFTProposalBytesStayPut TestBroadcastWireBytesUnchanged TestBroadcastEncodesOnce \
	TestDecodeFrameInPlace TestProposalFrameDecodesInPlace TestSendAndStepAllocateNothing \
	TestBFTCommitCatchesEditedProposal TestWireBytesPinned \
	TestMove2HomeCommitAllocationFlat TestExpectedMove2CatchesEditedPayload \
	TestReadFramesAllocateOnlyBodies TestJournalGolden TestJournalNamesFirstDifference \
	TestCheckNamesLineAgainstReference TestEditedTransactionPanics TestDeltaMove2MatchesFull \
	TestDeltaWorkAllocatesNoRun TestFailedCommitLeavesStoreAsItWas \
	TestDeltaHomeNodesScaleWithK TestDeltaHomeReadsCopyOnce TestUnpaidDeltaDoesNoStorageWork \
	TestSameKindDeltaInstallRefusesAsVerify TestShrinkKeepsBoundedSkeleton \
	TestStubExpansionChecksTheStubHash TestRebuiltStorageTreeChecksCommittedRoot \
	TestBackendConformanceWithSkeletons TestClusterHeightAllocatesNothing \
	TestHeightProbeFigures TestPollAllocatesNothing
DETSMOKE_PKGS = ./internal/journal/ ./internal/keys/ ./internal/types/ ./internal/state/ ./internal/chain/ \
	./internal/txpool/ ./internal/workload/ ./internal/bench/ ./internal/relay/ \
	./internal/tendermint/ ./internal/core/ ./internal/universe/ ./internal/trees/ \
	./internal/state/backend/ ./internal/mpt/ ./internal/simnet/
detsmoke:
	@have=$$($(GO) test -list '.*' $(DETSMOKE_PKGS)) || { echo "$$have"; exit 1; }; \
	for t in $(DETSMOKE_TESTS); do \
		echo "$$have" | grep -qx "$$t" || { echo "detsmoke: no test named $$t in the listed packages"; exit 1; }; \
	done
	$(GO) test -run "^($$(echo $(DETSMOKE_TESTS) | tr ' ' '|'))\$$" $(DETSMOKE_PKGS)

# identity prints every pinned value of simulated behaviour, one
# `identity: <test> <value>` line each, sorted: the journal digests of the
# detsmoke cells (fuzz traffic per tree kind and seed, the faulty cluster, the
# chaos, Byzantine and Kitties cells, the Move ping-pong timeline), the
# 16-chain sharded cell's fingerprint digest, the benchmark's seed-1
# kitties_replay round 0 and move_store first 256 Moves, and the benchmark's
# seed-1 shard_migrate round 0 (TestShardMigrateRound0). Each test logs the
# value it computed before comparing it with its pin, so two commits whose
# outputs diff clean behave identically on every pinned run; where a journal
# digest moved, the test's failure names the first line that parted. A
# journal test logs its state digest too (`identity: <test> state …`):
# equal state digests under moved full ones mean the same committed state,
# heights, times and receipt outcomes (status, gas, error text, logs),
# carried by other transaction bytes. It fails if a test
# fails or a listed test logs no line.
IDENTITY_TESTS = TestApplyBlockFuzzTraffic TestFaultyClusterDigest \
	TestChaosCellCrossGOMAXPROCS TestByzantineDeterminism \
	TestKittiesReplayCrossGOMAXPROCSDeterminism TestShardedScalingCrossGOMAXPROCSDeterminism \
	TestKittiesReplayRound0 TestShardMigrateRound0 \
	TestMovePingPongDigest TestMoveStoreFirst256
IDENTITY_PKGS = ./internal/chain/ ./internal/tendermint/ ./internal/bench/ \
	./internal/workload/ ./internal/universe/
identity:
	@SCMOVE_SHARDSMOKE=1 $(GO) test -count=1 -v -timeout 600s \
		-run "^($$(echo $(IDENTITY_TESTS) | tr ' ' '|'))\$$" $(IDENTITY_PKGS) > /tmp/scmove_identity.txt 2>&1 \
		|| { cat /tmp/scmove_identity.txt; exit 1; }
	@for t in $(IDENTITY_TESTS); do \
		grep -Eq "identity: $$t[ /]" /tmp/scmove_identity.txt || { echo "identity: $$t logged no identity line"; exit 1; }; \
	done
	@grep -o 'identity: .*' /tmp/scmove_identity.txt | sort

# relaycov is the branch-coverage gate of the Move's two decision sites: it
# runs the whole suite with coverage of internal/relay and internal/shard
# and fails, printing the unrun blocks, when relay/mover.go,
# relay/journal.go and shard/policy.go together leave any statement unrun
# (more than RELAYCOV_MAX, which is 0: every row of the relayer's
# transition function step, every defensive validate branch and every
# branch of the migration policy has a test). -coverpkg writes one line per
# block per test binary; a block ran if any binary ran it.
RELAYCOV_MAX = 0
relaycov:
	@$(GO) test -coverpkg=scmove/internal/relay,scmove/internal/shard -coverprofile=/tmp/scmove_relaycov.out ./... > /tmp/scmove_relaycov.txt 2>&1 \
		|| { cat /tmp/scmove_relaycov.txt; exit 1; }
	@awk -F'[: ]' -v max=$(RELAYCOV_MAX) ' \
		NR > 1 && $$1 ~ /internal\/(relay\/(mover|journal)|shard\/policy)\.go$$/ { k = $$1 ":" $$2; n[k] = $$3; c[k] += $$4 } \
		END { for (k in n) if (c[k] == 0) { print "relaycov: unrun " k " (" n[k] " statements)"; s += n[k] } \
			printf "relaycov: %d statements of relay/mover.go, relay/journal.go and shard/policy.go unrun, at most %d allowed\n", s, max; \
			exit s > max }' /tmp/scmove_relaycov.out

# expsmoke is the experiment-output sanity gate: a CI-scale ablations run,
# a chaos run with metrics and span tracing on, the byzantine and
# chaossweep runs with metrics (the byzantine run is the only binary path
# over corrupting links) and the three examples, captured to /tmp and
# grepped for error / out-of-gas lines; any nonzero exit fails it too. It
# catches both broken experiments (a stale `granularity n=1000 … out of
# gas` line once sat in results_full.txt unnoticed) and observability
# wiring that breaks a run.
expsmoke:
	$(GO) run ./cmd/movebench -experiment ablations -scale 0.08 > /tmp/scmove_expsmoke.txt 2>&1 \
		|| { cat /tmp/scmove_expsmoke.txt; exit 1; }
	$(GO) run ./cmd/movebench -experiment chaos -moves 2 -metrics -trace /tmp/scmove_expsmoke_trace.jsonl >> /tmp/scmove_expsmoke.txt 2>&1 \
		|| { cat /tmp/scmove_expsmoke.txt; exit 1; }
	$(GO) run ./cmd/movebench -experiment byzantine -metrics >> /tmp/scmove_expsmoke.txt 2>&1 \
		|| { cat /tmp/scmove_expsmoke.txt; exit 1; }
	$(GO) run ./cmd/movebench -experiment chaossweep -metrics >> /tmp/scmove_expsmoke.txt 2>&1 \
		|| { cat /tmp/scmove_expsmoke.txt; exit 1; }
	@for ex in quickstart tokenrelay kitties; do \
		echo "$(GO) run ./examples/$$ex"; \
		$(GO) run ./examples/$$ex >> /tmp/scmove_expsmoke.txt 2>&1 || { cat /tmp/scmove_expsmoke.txt; exit 1; }; \
	done
	@if grep -Ein 'error|out of gas' /tmp/scmove_expsmoke.txt; then \
		echo "expsmoke: error lines in experiment output (/tmp/scmove_expsmoke.txt)"; exit 1; \
	else \
		echo "expsmoke: clean ($$(wc -l < /tmp/scmove_expsmoke_trace.jsonl) trace spans)"; \
	fi

# fuzzsmoke runs every native fuzz target for ~5s against the committed
# seed corpora under testdata/fuzz/ (go test allows one -fuzz pattern per
# invocation, hence the loop). Any crasher fails the target and leaves the
# reproducer in the package's testdata/fuzz/ directory.
# FuzzVerifyMove2Storage runs a delta mode too (entry >= 128): flipped,
# dropped and doubled entries and added or dropped tombstones of a delta
# Move2 home are refused, inline and prepared alike. The payload, tx and
# tx-list decoders are seeded with a delta's base and deleted keys.
# FuzzStorageSkeleton replays random sets and deletes on both tree kinds,
# shrinking to hash stubs at random points, and requires Get, Iterate, Len
# and RootHash to match a fresh Build after every op.
FUZZTIME ?= 5s
fuzzsmoke:
	@set -e; \
	for spec in \
		'./internal/codec FuzzReaderRoundTrip' \
		'./internal/codec FuzzReaderHostile' \
		'./internal/types FuzzDecodeTransaction' \
		'./internal/types FuzzDecodeHeader' \
		'./internal/types FuzzDecodeMove2Payload' \
		'./internal/chain FuzzDecodeTxList' \
		'./internal/chain FuzzHeaderRelayDecode' \
		'./internal/core FuzzVerifyMove2AccountProof' \
		'./internal/core FuzzVerifyMove2Storage' \
		'./internal/trees FuzzBuildVsIncremental' \
		'./internal/trees FuzzStorageSkeleton' \
		'./internal/state/backend FuzzSegmentDecode' \
		'./internal/state/backend FuzzFileSlotIndex' \
		'./internal/simnet FuzzFrameDecode' \
		'./internal/tendermint FuzzWireDecode' \
		'./internal/relay FuzzDecodeJournal' \
		'./internal/relay FuzzStep' \
		'./internal/keys FuzzDecodePub' \
	; do \
		set -- $$spec; \
		echo "fuzzsmoke: $$2 ($$1, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$2$$" -fuzztime $(FUZZTIME) $$1 || exit 1; \
	done

# statesmoke is the bounded-RSS state-backend gate: a million-account
# genesis on the log-structured file backend with capped resident storage
# trees, an RSS ceiling, a close-and-reopen root check, root identity
# against the in-memory backend on the same update script, and a Kitties
# replay whose deterministic counters must match across backends — and the
# pin that iterating one contract's storage costs the same beside 100 k
# unrelated accounts. SCMOVE_STATESMOKE_ACCOUNTS scales the genesis for
# quicker local runs. -v shows the test's log: populate time, RSS, and the
# wall time of the reopen (one bulk build of the account tree).
statesmoke:
	SCMOVE_STATESMOKE=1 $(GO) test -v -run TestStateSmoke -count=1 -timeout 900s ./internal/bench/
	$(GO) test -run TestIterateStorageCostIsPerContract -count=1 ./internal/state/backend/

# shardsmoke is the sharded-universe scale gate: a 64-chain universe with a
# WAN instance per chain, a 100k keyed-user population
# (SCMOVE_SHARDSMOKE_USERS=1000000 for the full target), lazy relay mesh, and
# the auto-migration policy engine live. The run must complete with contracts
# actually migrating off the congested home shard. It also pins the
# repository benchmark's shard_migrate round 0 at seed 1
# (TestShardMigrateRound0: committed calls, simulated rate, moves, spread and
# the fingerprint).
shardsmoke:
	SCMOVE_SHARDSMOKE=1 $(GO) test -run 'TestShardSmoke|TestShardMigrateRound0' -count=1 -timeout 900s ./internal/workload/

# experiments reruns the paper's figure experiments end to end.
experiments:
	$(GO) run ./cmd/movebench -experiment all -scale 0.08

# loc prints the non-test Go lines outside benchmark/ and testdata/: the
# size of the program that ROADMAP.md's "Minimal" aim tracks (no build
# compiles a testdata/ fixture). It is not part of check.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' ! -path '*/testdata/*' -exec cat {} + | wc -l
