# Build / verification targets.
#
#   make check          tier-1: gofmt clean + vet + build + full test suite,
#                       then cross-compile checks of the row prefetch
#                       hint: vet of internal/mem for arm64 (its PRFM
#                       stub) and a build of everything for 386 (the
#                       no-op fallback); nothing is run for either
#   make race           race-detector pass over every package with
#                       concurrent code (wire, server, subsystem, metrics,
#                       trace, wal, cluster, caram, match), whole packages
#   make stress         tier-2: the concurrency stress tests under -race
#   make fuzz           10s per fuzz target, all nine: the protocol
#                       engine, the one request grammar (internal/wire:
#                       every verb row × spelling, the field scanner vs
#                       strings.Fields, the key and hex parsers), the
#                       bounded slot comparator vs the serial oracle, the
#                       ternary parser and the field accessors
#                       (internal/bitutil), and range-to-prefix expansion
#                       (internal/pktclass)
#   make bench          the parallel-throughput server benchmark, the
#                       batched MSEARCH fan-out, served 64-key MSEARCH
#                       lines on the ladder's table, the write path
#                       (insert+delete pairs, duplicate and absent probes,
#                       three layouts, cache-resident and ladder-sized)
#                       and the served load (600 000 pipelined INSERTs
#                       over two connections into the ladder's table)
#   make bench-load     one full caram-load run (five workloads, untraced
#                       and traced, plus the ladder) into a git-ignored
#                       file, compared against the newest bench/history
#                       baseline
#   make profile WORKLOAD=<name>
#                       30 s of one caram-load workload's deployment
#                       under load, a CPU profile of every server and
#                       router process saved from its /debug/pprof
#                       endpoint into .bench_build/ (profile-routed is
#                       WORKLOAD=search-routed)
#   make alloc-guard    allocation regression tests for the search hot
#                       path (match on every compiled variant, caram
#                       incl. the typed bounded LookupBest and the
#                       slice's write path, the request
#                       grammar and a warmed client's pipelined
#                       exchange in internal/wire, server incl.
#                       lpm/pktclass/TSEARCH, the wire path through
#                       Handle — SEARCH and MSEARCH lines alike — and the
#                       tracing-compiled-in steady state,
#                       the server's request path — every engine type's
#                       read and a journaled write, ExecAppend and
#                       Handle — with no collector, an idle one, and
#                       caram-server's default flags, served writes
#                       (INSERT, DELETE, a duplicate INSERT, an absent
#                       DELETE, runs of them, and the typed runs: lpm
#                       MINSERT+MDELETE, TINSERT) as mixed-wal deploys them,
#                       MSEARCH bookkeeping on one engine and across
#                       four, the router with an idle collector (what
#                       it runs when given none) and caram-router's
#                       default flags, and the WAL's snapshot /
#                       freeze / append / recovery / per-record
#                       replay guards)
#   make copy-guard     no whole-struct copy (DUFFCOPY) compiled into the
#                       per-key path's functions, from the assembly
#                       listing
#   make layer-guard    the application packages (iproute, pktclass,
#                       trigram, dict) depend on no serving-stack package
#                       (subsystem, server, cluster, wal, wire, metrics),
#                       from go list -deps; and no serving-stack package
#                       (those six and trace) imports internal/cam
#                       directly, from go list's import lists
#   make metrics-smoke  end-to-end observability check: live server and
#                       router, every declared family on each tier's
#                       /metrics, /debug/traces, SLOWLOG/EXPLAIN and
#                       HEALTH over the wire, graceful shutdown
#   make crash-harness  the kill-injection harness against the real
#                       binary (SIGKILL mid-fsync, restart,
#                       acked-present / unacked-absent)
#   make examples       every examples/* main run to completion (exit 0
#                       required): the end-to-end demos of iproute,
#                       trigram, pktclass and the rest
#   make ci             the CI gate, each test in each mode once:
#                       check + race + alloc-guard + copy-guard +
#                       layer-guard + crash-harness + metrics-smoke +
#                       examples
#
# The focused gates below are subsets of `make ci` for working on one
# area; each is self-contained, so they overlap each other (and ci runs
# none of them).
#
#   make trace-guard    tracing-layer gate: ring races under -race,
#                       slowlog admission property, the server's
#                       admission rule (late-built entries, the burst
#                       clock chain, materialise-only-sampled-or-tagged,
#                       slow writes keep wal_append), zero-alloc with
#                       tracing compiled in (off, on-unadmitted and
#                       under the deployed flags)
#   make chaos          fault-injection capstone under -race: mixed ops
#                       against engines with live soft-error injectors,
#                       exact ECC/injector counter reconciliation (incl.
#                       the seqlock variant with concurrent scrubs)
#   make seqlock-guard  wait-free search gate: torn-read/linearizability
#                       suites under -race, the zero-alloc guards with
#                       the seqlock read path compiled in, and the
#                       byte-exact golden session
#   make typed-guard    typed-engine gate: the LPM/pktclass/trigram
#                       differential oracle suites and lifecycle churn
#                       under -race, the slot-comparator differential and
#                       the occupancy-mark suites (model, bounded-equals-
#                       locked, stale buffer, mark churn, ECC opt-out)
#                       under -race, the parser-hardening table, the
#                       typed write runs held to line-at-a-time under
#                       -race, the zero-alloc guards with typed engines
#                       registered (typed reads and write runs), and the
#                       byte-exact golden session serving all four
#                       engine types in one process
#   make cluster-guard  cluster-router gate: the whole router suite
#                       under -race (ring determinism + rebalance,
#                       pool FIFO/breaker semantics, scatter/gather,
#                       the byte-exact golden session through a live
#                       2-backend cluster, batch failure semantics
#                       against scripted backends, kill-a-backend
#                       failover under stress)
#   make crash-guard    durability gate: crash-harness, then the WAL
#                       suite (torn-tail recovery at every byte offset
#                       and across the replay chunk's edges, the
#                       streamed snapshot held to the whole-buffer
#                       oracle and to a parent-written file, stale
#                       .snap.tmp cleanup, snapshot truncation,
#                       graceful-drain Close) under -race
#   make write-guard    write-path gate: under -race, the exact-locate
#                       and the field writers held to their oracles on
#                       every compiled variant, the commit property, the
#                       placement-identity schedules (change vs. the
#                       retained ReadSlot-loop path, word for word, with
#                       Slice.Verify after every step and a twin reloaded
#                       from a freeze keeping the same placement
#                       bookkeeping, ECC and live fault injectors
#                       included), Place/DeleteAt's home range check
#                       (PlaceHomeRange), the Reader torn-read suites
#                       and the single-slot flip, chaos, the snapshot
#                       freeze's model check, and replay's dropped-record
#                       count; then the write path's allocation guards
#                       (slice, served writes, MSEARCH)
#   make all            check, race, stress, fuzz, bench and every
#                       focused gate, in that order
#
# `make ci` wall time on the 2-vCPU reference box, warm build cache,
# GOFLAGS=-count=1: 63 s with the ten overlapping tiers it had
# through PR 15 (ZeroAlloc ./internal/server ran in four of them,
# GoldenSession in two, most -race subsets twice) → 43 s regrouped;
# 35 s at PR 21, with the admission-rule suites and the deployed-flags
# allocation table in; 35–39 s at PR 22, with the write-path suites in;
# 38 s with copy-guard in, which itself takes under a second; 42 s with
# the snapshot freeze's model check and guards in, against 39 s without
# them on the same box in the same hour; 54 s → 58 s with the examples
# in (they take about 4 s), the two measured back to back.

GO       ?= go
FUZZTIME ?= 10s

.PHONY: all check fmt-check vet race stress fuzz bench bench-load profile profile-routed alloc-guard copy-guard layer-guard trace-guard seqlock-guard typed-guard cluster-guard crash-guard crash-harness write-guard chaos metrics-smoke examples ci

all: check race stress fuzz bench trace-guard seqlock-guard typed-guard cluster-guard crash-guard write-guard chaos metrics-smoke

# Each test runs once per mode: check is the whole suite without the
# race detector, race the whole of every concurrent package with it,
# and the rest is what neither can run — the allocation guards (they
# skip themselves under -race, and want -count=1), the kill harness,
# the live-binary smoke test and the examples.
ci: check race alloc-guard copy-guard layer-guard crash-harness metrics-smoke examples

check: fmt-check vet
	$(GO) build ./...
	$(GO) test ./...
	GOARCH=arm64 $(GO) vet ./internal/mem
	GOARCH=386 $(GO) build ./...

# gofmt -l prints the files it would rewrite; any output fails the gate.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -count=1 ./internal/wire ./internal/server ./internal/subsystem ./internal/metrics ./internal/trace \
		./internal/wal ./internal/cluster ./internal/caram ./internal/match

metrics-smoke:
	$(GO) run ./cmd/metrics-smoke

examples:
	@for d in examples/*/; do echo "$$d"; $(GO) run ./$$d >/dev/null || exit 1; done

# Fault-injection capstone: 32 goroutines of mixed operations against
# ECC-protected engines whose memory arrays have live fault injectors,
# under the race detector, with exact counter reconciliation at the end.
chaos:
	$(GO) test -race -run Chaos -count=1 ./internal/subsystem

# Tier-2: the mixed-workload stress tests (>=32 goroutines, >=10k ops)
# under the race detector, across every package that defines them.
stress:
	$(GO) test -run Stress -race ./...

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzExec -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzRequest -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzScanner -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzParseVec -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzParseHex64 -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzKernelVsSerial -fuzztime $(FUZZTIME) ./internal/match
	$(GO) test -run '^$$' -fuzz FuzzParseTernary -fuzztime $(FUZZTIME) ./internal/bitutil
	$(GO) test -run '^$$' -fuzz FuzzFieldAccess -fuzztime $(FUZZTIME) ./internal/bitutil
	$(GO) test -run '^$$' -fuzz FuzzRangeToPrefixes -fuzztime $(FUZZTIME) ./internal/pktclass

bench:
	$(GO) test -run '^$$' -bench 'ServerParallelSearch|MSearchBatched|ServedMSearch|WritePath|ServedInsertBurst' -benchmem .

# Allocation regression guard: testing.AllocsPerRun == 0 on the core
# search paths (row match kernel on binary, ternary and 104-bit ternary
# layouts, slice lookup, the Reader's batch pipeline and its typed
# bounded LookupBest, the slice's mutators and membership tests, the
# request parse (scan, annotation, verb lookup in either case,
# identity), a warmed wire.Client's pipelined exchange, server SEARCH / lpm / pktclass / TSEARCH through ExecAppend
# and, per line, through Handle, MSEARCH lines likewise, and the steady
# state with tracing compiled in; TestRequestPathZeroAlloc's table of
# those reads plus a journaled write under no collector, an idle one and
# caram-server's default flags; TestServedWritesZeroAlloc's INSERT,
# DELETE, duplicate INSERT and absent DELETE with the WAL syncing every
# 5 ms; both with a 64-INSERT run, a DELETE run, a mid-burst engine
# switch, 16 lpm MINSERTs of wildcarded prefixes then their MDELETEs,
# and 16 TINSERTs then DELETEs of their key images, which Handle applies
# as runs of writes), the owning MSearch's
# bookkeeping held to its two slices, and
# the router forward path (SEARCH and MSEARCH) with an idle collector —
# the router's own when it is given none — and the collector
# caram-router's default flags build; and
# the durability layer's memory model — a steady-state snapshot of a
# 10 MB table allocates under 64 KiB, a first snapshot of mixed-wal's
# table at alpha 0.57 under 1 MiB, a write under a warm freeze nothing,
# an Append and its flush nothing once both halves of the WAL's double
# buffer exist, a snapshot+tail recovery O(chunk), a replayed record
# nothing. This is the one non-race run of these guards in `make ci`.
alloc-guard:
	$(GO) test -run ZeroAlloc -count=1 ./internal/match ./internal/caram ./internal/wire
	$(GO) test -run 'ZeroAlloc|TracingOnSteadyStateAllocs' -count=1 ./internal/server
	$(GO) test -run MSearchAllocs -count=1 ./internal/subsystem
	$(GO) test -run AllocGuard -count=1 ./internal/wal
	$(GO) test -run 'ForwardPathAllocs|RouterUntracedZeroAlloc' -count=1 ./internal/cluster

# Copy guard: no whole-struct copy on the per-key path — nor on the one
# write path's, from the session's join and the write parser through
# the flush's applyRun (or exec's run of one) to the executor's run body,
# WriteRun, and the touch stage (the journal stage's Append takes its
# entry by value, as the Journal interface has it, and is not listed). A value receiver,
# or a by-value parameter or return, of a struct past 64 bytes
# (caram.Config 112, match.Result 104, wire.Request and an MSEARCH slot
# 88) compiles to a DUFFCOPY — a call into runtime.duffcopy — at every
# use; the functions below, their inlined callees included, must compile
# to none. The compiler's assembly listing (-gcflags=-S, replayed from
# the build cache) is read per function; a listed function that is no
# longer emitted fails the guard too, so a rename cannot pass it silently.
COPY_GUARD_FUNCS = \
	caram/internal/caram.(*Slice).Index caram/internal/caram.(*Slice).step \
	caram/internal/caram.(*Slice).probe caram/internal/caram.(*Slice).place \
	caram/internal/caram.(*Slice).locate caram/internal/caram.(*Reader).chain \
	caram/internal/caram.(*Reader).matchRow caram/internal/caram.(*Reader).LookupBatch \
	caram/internal/caram.(*Slice).scan \
	caram/internal/caram.(*Slice).SelectWhere caram/internal/caram.(*Slice).UpdateWhere \
	caram/internal/caram.(*Slice).scanRow caram/internal/caram.(*Slice).SelectChain \
	caram/internal/subsystem.(*guardedEngine).batchSeq caram/internal/subsystem.(*Concurrent).MSearchServed \
	caram/internal/server.(*Server).exec caram/internal/caram.(*Slice).Touch \
	caram/internal/subsystem.(*Engine).Touch caram/internal/subsystem.(*Concurrent).WriteRun \
	caram/internal/server.(*session).join caram/internal/server.(*session).flushRun \
	caram/internal/server.(*Server).applyRun caram/internal/server.(*Server).parseWrite \
	caram/internal/server.(*Server).execWriteAppend caram/internal/server.(*Server).execMSearchAppend \
	caram/internal/cluster.(*Router).route caram/internal/wire.(*Scanner).Next \
	caram/internal/wire.ParseVec
copy-guard:
	@$(GO) build -gcflags=-S ./internal/caram ./internal/subsystem ./internal/server ./internal/cluster ./internal/wire 2>&1 | \
	awk -v want='$(strip $(COPY_GUARD_FUNCS))' ' \
		BEGIN { n = split(want, w, " "); for (i = 1; i <= n; i++) keep[w[i]] = 1 } \
		/ STEXT / { fn = $$1; on = fn in keep; if (on) seen[fn] = 1; next } \
		on && /\tDUFFCOPY\t|CALL\truntime\.duffcopy/ { copies[fn]++; total++ } \
		END { \
			for (f in keep) if (!(f in seen)) { print "copy-guard: " f " not found"; bad = 1 } \
			for (f in copies) print "copy-guard: " copies[f] " whole-struct copies in " f; \
			printf "copy-guard: %d whole-struct copies in %d functions\n", total, n; \
			exit bad || total > 0 }'

# Layer guard: the applications' packages — the paper's case studies
# and the dictionary — build their engines from caram and sit below the
# serving stack; the serving stack imports them, never the reverse.
# Their transitive dependencies must name no serving-stack package.
# A served engine is one slice with one match pipeline: no serving-stack
# package imports the CAM model itself (pktclass's classifier TCAM
# reaches subsystem through pktclass, so the check reads each package's
# direct imports, not -deps).
LAYER_GUARD_PKGS = ./internal/iproute ./internal/pktclass ./internal/trigram ./internal/dict
SERVING_PKGS = ./internal/subsystem ./internal/server ./internal/cluster ./internal/wal ./internal/wire ./internal/metrics ./internal/trace
layer-guard:
	@bad="$$($(GO) list -deps $(LAYER_GUARD_PKGS) | grep -E '^caram/internal/(subsystem|server|cluster|wal|wire|metrics)$$')"; \
	if [ -n "$$bad" ]; then echo "layer-guard: the application packages depend on the serving stack:"; echo "$$bad"; exit 1; fi; \
	echo "layer-guard: no serving-stack package under $(LAYER_GUARD_PKGS)"; \
	bad="$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' $(SERVING_PKGS) | grep -E ' caram/internal/cam( |$$)' | cut -d: -f1)"; \
	if [ -n "$$bad" ]; then echo "layer-guard: serving-stack packages import internal/cam directly:"; echo "$$bad"; exit 1; fi; \
	echo "layer-guard: no serving-stack package imports internal/cam"

# Durability gate: the whole WAL suite under the race detector (the
# exhaustive torn-tail property, snapshot truncation + replay gating,
# CREATE/DROP replay, relaxed-policy seal flushing, and the two
# refusals: TestRecoverRefusesLSNGap — the newer of two snapshots rots
# after the segments the older one needs were pruned — and
# TestRecoverRefusesMidSegmentRot — a bad frame with intact records
# behind it is not a torn tail), the server-side
# graceful-drain / WAL STATUS suites, the fleet WAL STATUS merge, the
# router's graceful drain (acked writes present on their backends), and
# the kill-injection harness — the real binary SIGKILLed mid-group-
# commit (the -wal-slow-sync hook widens the fsync window), restarted,
# and audited: every acked write present, every unacked write absent.
# CRASH_GUARD_ITERS (default 3) extends the kill loop for soak runs.
crash-guard: crash-harness
	$(GO) test -race -count=1 ./internal/wal
	$(GO) test -race -run 'Close|WALStatus|WALExec' -count=1 ./internal/server
	$(GO) test -race -run 'Close|RouterWALStatus' -count=1 ./internal/cluster

crash-harness:
	$(GO) test -run 'Crash|GracefulShutdown' -count=1 ./cmd/caram-server

# Write-path gate: INSERT and DELETE find, place and publish on the
# comparator bank. Under the race detector: Searcher.Locate held to the
# ReadSlot loop and the field writers to bitutil.SetBits on all four
# compiled variants; the commit property (storage is the scratch, the
# version moves twice, changed or not); the placement-identity schedules
# — every mutator at random against the retained oracle path, storage
# word for word and every mark, home load, reach, version, statistic,
# charge and ECC cell equal after each step, Slice.Verify after each
# step, with ECC and live seeded injectors among the cases — and the
# hand-built locate cases (foreign-chain duplicates, quarantined
# shadow); the bulk scans and the chain-bounded scan over a single- and
# a double-bit error at rest, held to an untouched twin (corrected, or
# answered and changed in the shadow of the row they quarantine); the
# Reader torn-read suites unmodified plus the 10^5-flip
# single-slot test; the chaos capstone; the snapshot freeze's model
# check — every write path interleaved with the walk, row by row, three
# clock seeds, and the mid-write snapshot held to the oracle and
# recovered — since every write path keeps a pre-image for it; replay's
# dropped-record count, staged replay held to record-at-a-time replay,
# and the WAL's bounded buffer under a lagging syncer; the write runs —
# random bursts of every write verb, typed ones included, through Handle
# held to the same lines one ExecAppend at a time (replies, tables,
# journal), an engine failing mid-run, and DROP ENGINE racing runs.
# Then, without it, the allocation guards of the path: the slice's
# mutators, served writes with the WAL attached as deployed (runs
# included, the typed write guards' lpm MINSERT+MDELETE and TINSERT runs
# among them), an MSEARCH line through ExecAppend and Handle, and the
# owning MSearch's two; and a 10 000-INSERT burst admitting no slowlog
# entry at the deployed threshold.
write-guard:
	$(GO) test -race -run 'KernelLocate|FieldWriters|ClearSlot' -count=1 ./internal/match
	$(GO) test -race -run 'CommitRowUpdate' -count=1 ./internal/mem
	$(GO) test -race -run 'WritePath|Locate|PlaceHomeRange|UnchangedCommit|OccupancyMarkModel|TestReader|ScanErrorAtRest' -count=1 ./internal/caram
	$(GO) test -race -run 'FreezeModelCheck' -count=3 ./internal/caram
	$(GO) test -race -run 'Chaos' -count=1 ./internal/subsystem
	$(GO) test -race -run 'ReplayCountsDropped|FreezesMidWrite|StagedReplay|AppendWaits' -count=1 ./internal/wal
	$(GO) test -race -run 'WriteRun' -count=1 ./internal/server
	$(GO) test -run 'WritePathZeroAlloc' -count=1 ./internal/caram
	$(GO) test -run 'ServedWritesZeroAlloc|HandleZeroAllocPerLine|WriteRunSlowlog' -count=1 ./internal/server
	$(GO) test -run MSearchAllocs -count=1 ./internal/subsystem

# Tracing-layer gate: the lock-free ring under the race detector, the
# slowlog admission property (admitted exactly when latency exceeds the
# threshold), the per-command pipelined-burst attribution, the server's
# admission rule (entries built after the fact and charging nothing,
# their synthesised probe chain held to the traced one, the burst's
# shared clock chain and where it is cut, traces materialised only for
# sampled or tagged requests, slow writes keeping their wal_append
# span), the wire
# *TID annotation / TRACE GET suites, the cluster tracing suites (the
# stitched end-to-end trace through a live router, fleet SLOWLOG /
# METRICS / TRACE merges, traced-vs-idle transparency, the
# tag-what-you-keep rule: late-built slowlog entries and exactly the
# sampled requests tagged on real backends), and the steady-state
# zero-alloc guarantee with tracing compiled in — on the router, under
# the flags it is deployed with.
trace-guard:
	$(GO) test -race -count=1 ./internal/trace
	$(GO) test -race -run 'Pipelined|Slowlog|Explain|SlowRequest|TracingOn|WireAnnotation|TraceGet|LateBuilt|Retrace|MaterialisesOnly|BurstClockChain|SplitLine|SlowWrite' -count=1 ./internal/server
	$(GO) test -race -run 'ClusterTracing|RouterSlowlog|RouterTagsOnlySampled|RouterMetricsAggregation|RouterTraceGet|RouterTracedTransparency|RouterHealthMergeOrder|RouterUntraced' -count=1 ./internal/cluster
	$(GO) test -run 'TracingOnSteadyStateAllocs|ZeroAlloc' -count=1 ./internal/server
	$(GO) test -run 'ForwardPathAllocs/deployed-flags' -count=1 ./internal/cluster

# Wait-free search gate: the torn-read/linearizability suites (caram
# Reader and subsystem dispatch, single lookups and LookupBatch/MSEARCH
# batches side by side) under the race detector, batch-equals-singles
# and per-key ECC escalation, the wait-free code-level assertion and
# forced-retry telemetry, the zero-allocation
# guards with the seqlock path compiled in, and the byte-exact golden
# session (nothing on the wire may change).
seqlock-guard:
	$(GO) test -race -run 'TestReader' -count=1 ./internal/caram
	$(GO) test -race -run 'SearchWaitFree|SearchTornReadStress|ForcedRetryTelemetry|MSearchBatch' -count=1 ./internal/subsystem
	$(GO) test -run ZeroAlloc -count=1 ./internal/match ./internal/caram ./internal/server
	$(GO) test -run GoldenSession -count=1 ./internal/server

# Typed-engine gate: every differential oracle suite (wire answers vs
# the simulation packages' trie / linear classifier / trigram slice),
# the 16-goroutine mixed-ops churn variants, and engine lifecycle churn
# all run under the race detector, as do the layers the typed reads
# stand on: the slot comparator held to SearchSerial on every compiled
# variant and slot bound, and the occupancy-mark suites (write-path
# model against Verify, bounded Reader equal to the locked path, stale
# snapshot buffer, mark churn under LookupBest, ECC whole-row opt-out);
# then the typed parser-hardening table, the typed run differential —
# MINSERT, MDELETE and TINSERT runs, type-gate and text errors mid-run,
# interleaved with exact runs, held to the same lines one ExecAppend at a
# time — under the race detector, the zero-alloc guards with typed
# engines registered (typed reads, and the typed write guards: lpm
# MINSERT+MDELETE and TINSERT runs), and the golden session that serves
# exact, lpm, pktclass, and trigram engines from one server process.
typed-guard:
	$(GO) test -race -run 'Typed' -count=1 ./internal/server ./internal/subsystem
	$(GO) test -race -run 'WriteRun' -count=1 ./internal/server
	$(GO) test -race -run 'Kernel' -count=1 ./internal/match
	$(GO) test -race -run 'Occupancy|ReaderBounded|ReaderStaleBuffer|ReaderMarkChurn|ReaderWholeRows' -count=1 ./internal/caram
	$(GO) test -run 'ZeroAlloc' -count=1 ./internal/server
	$(GO) test -run GoldenSession -count=1 ./internal/server

# Cluster-router gate: everything in internal/cluster under the race
# detector — ring determinism and the rebalance property, pool FIFO
# reply matching and breaker/probe recovery, the transparency
# differential, scatter/gather merges, the byte-exact golden session
# through a live two-backend cluster, the batch failure semantics
# (k-of-n replies then close, ERR BUSY, an unsolicited line) and the
# kill-a-backend failover storm. The zero-alloc guards skip themselves
# here (the race runtime allocates); alloc-guard runs them.
cluster-guard:
	$(GO) test -race -count=1 ./internal/cluster

# The paired-run recipe in one command: a full caram-load run at seed 1
# into .bench_build/ (git-ignored), then the delta table against the
# newest recorded baseline (history files sort by their sequence
# number). Noisy rows read "unresolved", not "ok"; a claim needs the
# alternating pairs bench/README.md describes.
BENCH_LOAD_OUT ?= .bench_build/bench-load.json
bench-load:
	mkdir -p $(dir $(BENCH_LOAD_OUT))
	$(GO) run ./cmd/caram-load -seed 1 -out $(BENCH_LOAD_OUT)
	$(GO) run ./cmd/caram-load -compare $(lastword $(sort $(wildcard bench/history/*.json))) $(BENCH_LOAD_OUT)

# Read the next premium from a profile, not a guess: run one workload's
# deployment (real binaries, default flags) under load for
# PROFILE_SECONDS and save a CPU profile of every caram-server and
# caram-router process from its own /debug/pprof endpoint. The
# processes listen on ephemeral ports; ss finds them, and /metrics
# tells the HTTP port from the wire port. Set-up may start, kill and
# restart servers (mixed-wal's crash-and-recover does, once per
# set-up), so profiling starts only once the set of listening caram-*
# pids has held still for 5 s — the measured deployment — and covers
# half of PROFILE_SECONDS from there; the target fails when no
# non-empty profile was saved. Read with
# `go tool pprof -top .bench_build/caram-server <file>`.
PROFILE_SECONDS ?= 30
WORKLOAD ?= search-routed
profile:
	@mkdir -p .bench_build && rm -f .bench_build/*.cpu.pprof
	@$(GO) run ./cmd/caram-load --workload $(WORKLOAD) --seed 1 --seconds $(PROFILE_SECONDS) --trace 0 \
		>.bench_build/profile-$(WORKLOAD).log 2>&1 & load=$$!; \
	pids() { ss -ltnpH | sed -n 's/.*"caram-\(router\|server\)",pid=\([0-9]*\).*/\2/p' | sort -u | tr '\n' ' '; }; \
	prev=; stable=0; \
	for i in $$(seq 1 480); do \
		cur=$$(pids); \
		if [ -n "$$cur" ] && [ "$$cur" = "$$prev" ]; then stable=$$((stable + 1)); else stable=0; fi; \
		prev=$$cur; [ $$stable -ge 10 ] && break; sleep 0.5; \
	done; \
	ss -ltnpH | sed -n 's/.* \(127\.0\.0\.1:[0-9]*\) .*(("\(caram-[a-z]*\)",pid=\([0-9]*\),.*/\1 \2 \3/p' | { \
		while read addr name pid; do \
			curl -sf -o /dev/null "http://$$addr/metrics" 2>/dev/null || continue; \
			echo "profiling $$name (pid $$pid) at $$addr"; \
			curl -sf -o ".bench_build/$$name-$$pid.cpu.pprof" \
				"http://$$addr/debug/pprof/profile?seconds=$$(( $(PROFILE_SECONDS) / 2 ))" & \
		done; wait; }; \
	wait $$load; tail -1 .bench_build/profile-$(WORKLOAD).log; \
	find .bench_build -name '*.cpu.pprof' -size +0 | grep . || { echo "profile: no CPU profile was saved" >&2; exit 1; }

profile-routed:
	@$(MAKE) profile WORKLOAD=search-routed
