# Development targets for the Download library. Everything is stdlib Go;
# no external tools are required beyond the Go toolchain.

GO ?= go
FUZZTIME ?= 30s

# Pinned versions for the optional lint tools (make lint). `go run` fetches
# them on demand; everything else needs only the toolchain.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2024.1.1
GOVULNCHECK := golang.org/x/vuln/cmd/govulncheck@v1.1.3

# Every test invocation carries an explicit -timeout so a hung suite
# fails its CI job in minutes instead of idling until the runner's
# global kill (the per-job timeout-minutes then only bounds true
# pathologies). Override for slow local machines: make test TIMEOUT=20m.
TIMEOUT ?= 10m

.PHONY: all build fmt vet test race bench profile conform conformance chaos source-chaos mirrors scale-smoke storm experiments fuzz lint cover dst-search dst-regen harden loc clean

all: build vet test

build:
	$(GO) build ./...

fmt:
	gofmt -w .

# gofmt -l exits 0 even when files need formatting; grep inverts that so
# unformatted files fail the target (and get listed).
vet: build
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# -shuffle=on randomizes test and subtest execution order each run (the
# seed is printed on failure for reproduction with -shuffle=<seed>),
# keeping the suites free of inter-test order dependence.
test:
	$(GO) test -shuffle=on -timeout $(TIMEOUT) ./...

# The concurrency suites under the race detector: the socket runtime —
# the hub + load generator, each client's query-plane driver and its
# timer (the plane's own package, internal/qplane, starts no goroutine),
# and Byzantine fates on their own clients (TestTCPByzantine*) — the
# download facade, the des engine, committee's Report, the one message
# that caches on itself and is shared between recipients
# (TestSharedReportRace), and the packages whose tests start sockets or
# share a registry: harden (TestCollectorOnSockets runs Byzantine fates on
# netrt), storm (TestStormPinnedSeedOverTCP runs churn fates and absent
# peers) and obs.
race:
	$(GO) test -race -timeout $(TIMEOUT) ./internal/des/ ./internal/netrt/ ./download/ ./internal/protocols/committee/ \
		./internal/harden/ ./internal/storm/ ./internal/obs/

bench:
	$(GO) test -bench=. -benchmem . | tee bench_output.txt

# CPU and heap profile of one cell of `go run ./benchmark`: a whole-download
# cell (download/cells_bench_test.go: des-crashk, des-committee, tcp-crashk,
# tcp-naive-bmaj, plus des-committee-quarter for the short-run committee
# schedule), 40 downloads as in one benchmark pass, or one of the two
# workloads that drive internal/netrt directly (internal/netrt/bench_test.go):
# hub-load, 10 load trials, and tcp-storm, 40 downloads. table1-committee is
# Table 1's committee cell itself (bench_test.go's
# BenchmarkExperiments/T1/committee, 94.8 M messages a run), 40 runs. The
# package follows from the cell's name. The test binary and the profiles land
# in benchmark/out/ (git-ignored) for `go tool pprof -list`; the cumulative top
# is printed. Not a gate.
CELL ?= des-crashk
ifeq ($(CELL),table1-committee)
PROFILE_PKG := .
PROFILE_BENCH := BenchmarkExperiments/T1/committee$$
PROFILE_N := 40x
else ifeq ($(CELL),hub-load)
PROFILE_PKG := ./internal/netrt
PROFILE_BENCH := BenchmarkHubLoad$$
PROFILE_N := 10x
else ifeq ($(CELL),tcp-storm)
PROFILE_PKG := ./internal/netrt
PROFILE_BENCH := BenchmarkStorm$$
PROFILE_N := 40x
else
PROFILE_PKG := ./download
PROFILE_BENCH := BenchmarkCell/$(CELL)$$
PROFILE_N := 40x
endif
profile:
	mkdir -p benchmark/out
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchtime $(PROFILE_N) -timeout $(TIMEOUT) \
		-o benchmark/out/$(CELL).test \
		-cpuprofile benchmark/out/$(CELL).cpu.prof -memprofile benchmark/out/$(CELL).mem.prof $(PROFILE_PKG)
	$(GO) tool pprof -top -cum -nodecount=40 benchmark/out/$(CELL).test benchmark/out/$(CELL).cpu.prof

conform:
	$(GO) run ./cmd/drconform -n 16 -L 2048 -seeds 3 -tcp

# Cross-runtime conformance gate (see docs/SPEC.md + docs/TESTING.md
# "The conformance tier"): the conformance package suite (drift refusal,
# negative controls, des-vs-tcp equivalence, fixture round-trips), the
# drconform exit-code regressions, then the committed golden corpus
# executed on both runtimes — des and real TCP sockets — diffed
# field-by-field into a protocol × runtime pass matrix, then one small
# unpinned sweep with every column (des, tcp, and des again behind
# a flaky source, behind a Byzantine-majority mirror fleet, and under
# the hardening supervisor). Regenerate the corpus with
# `go test ./internal/conformance -update` (refuses semantic drift
# unless CorpusVersion is bumped).
conformance:
	$(GO) test -count=1 -timeout $(TIMEOUT) ./internal/conformance/ ./cmd/drconform/
	$(GO) run ./cmd/drconform -fixtures -tcp
	$(GO) run ./cmd/drconform -n 6 -L 256 -seeds 1 -tcp -harden -flaky-source \
		-mirrors "mirrors=5,byz=3,behavior=mixed,seed=7"

# Tier-2 robustness gate: the chaos suites and the Byzantine-over-sockets
# suites (netrt's TestTCPByzantine*, the corpus's TestCorpusByzantine)
# under the race detector, the drstorm and drshrink exit-code
# regressions, then a quick drstorm chaos grid over real sockets:
# protocol × drop rate × flap count, two seeds a cell, each run held to
# storm.Check's invariants; a breached cell exits 3 and leaves its spec
# JSON and .dsr replay in storm-findings/.
chaos:
	$(GO) test -race -count=1 -timeout $(TIMEOUT) -run 'TestChaos|TestTCPByzantine|TestCorpusByzantine' ./...
	$(GO) test -count=1 -timeout $(TIMEOUT) ./cmd/drstorm/ ./cmd/drshrink/
	$(GO) run ./cmd/drstorm -protocols naive,crashk,committee -drops 0,0.1,0.2 -flaps 0,2 -storms 2

# Flaky-source robustness gate (see docs/RUNTIMES.md "Source faults"):
#  1. the source package suite plus every source/churn test across the
#     runtimes (des, netrt, dst replay corpus, download e2e);
#  2. the conformance matrix with the flaky-source column — every
#     protocol × behavior cell re-run against a seeded faulty source;
#  3. the drstorm and drshrink exit-code regressions, then a drstorm chaos
#     grid layering source faults on network chaos.
source-chaos:
	$(GO) test -count=1 -timeout $(TIMEOUT) ./internal/source/ ./internal/dst/
	$(GO) test -count=1 -timeout $(TIMEOUT) -run 'TestSource|TestChurn|TestE2ESourceChaos|TestPinned' ./internal/des/ ./internal/netrt/ ./download/
	$(GO) run ./cmd/drconform -n 12 -L 1024 -seeds 2 -flaky-source
	$(GO) test -count=1 -timeout $(TIMEOUT) ./cmd/drstorm/ ./cmd/drshrink/
	$(GO) run ./cmd/drstorm -protocols naive,crashk,committee -drops 0,0.1 -flaps 0 -storms 2 \
		-source-faults "fail=0.2,timeout=0.1,seed=3"

# Merkle-mirror gate (see docs/MODEL.md "The mirror tier" +
# docs/SPEC.md frames): the commitment scheme's property and forgery
# suites, the mirror fleet suite, every mirror test across the runtimes
# (des, real TCP sockets with the QPROOF/QUERYSRC frames — again under
# the race detector, where the hub shares one fleet —, dst replay,
# download e2e), then a drconform
# sweep with the mirror column — every protocol × fleet cell re-run
# against a Byzantine-majority mirror fleet.
mirrors:
	$(GO) test -count=1 -timeout $(TIMEOUT) ./internal/merkle/ ./internal/source/
	$(GO) test -count=1 -timeout $(TIMEOUT) -run 'TestMirror' ./internal/des/ ./internal/netrt/ ./internal/dst/ ./download/
	$(GO) test -race -count=1 -timeout $(TIMEOUT) -run 'TestMirror' ./internal/netrt/
	$(GO) run ./cmd/drconform -n 12 -L 1024 -seeds 2 -mirrors "mirrors=5,byz=3,behavior=mixed,seed=7"

# Million-peer scale gate (see docs/SCALING.md): drload's suite (the
# LOAD_ file format and the exit codes), then a 50k-client drload run
# against one hub with hard SLOs — p99 closed-loop latency under
# 2s and zero dropped queries. drload exits 3 on a breach. The
# LOAD_<timestamp>.json artifact lands in load/ for upload.
scale-smoke:
	$(GO) test -count=1 -timeout $(TIMEOUT) ./cmd/drload/
	$(GO) run ./cmd/drload -clients 50000 -conns 32 \
		-slo-p99 2000 -slo-zero-drop -out load

# Composed-fault storm gate (see docs/RUNTIMES.md "Crash recovery" and
# internal/storm): the storm suites — generator determinism, invariant
# checkers with negative controls, the pinned acceptance storm over real
# TCP plus its byte-identical committed .dsr — the checkpoint codec
# property suite and the drstorm exit-code regressions; the churn /
# resume-handshake / listener-outage netrt suites under the race detector;
# then a drstorm matrix: every protocol × STORMS seeded storms, each
# composing network chaos × source outage × Byzantine-majority mirrors ×
# crash-recovery churn × a hub listener outage on real sockets. drstorm
# exits 3 on any invariant breach; failing storms leave their spec JSON
# and a (des-shrunk) .dsr replay in storm-findings/. STORMTIME mirrors
# FUZZTIME: non-zero turns the fixed matrix into a wall-clock soak that
# cycles storm rounds until the budget is spent (the nightly uses 10m).
STORMTIME ?= 0s
STORMS ?= 3
storm:
	$(GO) test -count=1 -timeout $(TIMEOUT) ./internal/storm/ ./internal/checkpoint/ ./cmd/drstorm/
	$(GO) test -race -count=1 -timeout $(TIMEOUT) -run 'TestChurn|TestListenerOutage' ./internal/netrt/
	$(GO) run ./cmd/drstorm -storms $(STORMS) -budget $(STORMTIME) -out storm-findings

experiments:
	$(GO) run ./cmd/drbench -suite all | tee experiments_full.txt

# Short coverage-guided fuzzing passes over the schedule and wire fuzzers.
# Override FUZZTIME for quicker smoke runs (the nightly CI uses 10s).
fuzz:
	$(GO) test -fuzz=FuzzCrashKSchedules -fuzztime=$(FUZZTIME) ./internal/des/
	$(GO) test -fuzz=FuzzCrash1Schedules -fuzztime=$(FUZZTIME) ./internal/des/
	$(GO) test -fuzz=FuzzCommitteeSchedules -fuzztime=$(FUZZTIME) ./internal/des/
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzSetScan -fuzztime=$(FUZZTIME) -run '^$$' ./internal/intset/
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME) -run '^$$' ./internal/netrt/
	$(GO) test -fuzz=FuzzDecodeQuery -fuzztime=$(FUZZTIME) -run '^$$' ./internal/netrt/
	$(GO) test -fuzz=FuzzFrameRoundTrip -fuzztime=$(FUZZTIME) -run '^$$' ./internal/netrt/
	$(GO) test -fuzz=FuzzDecodeProofReply -fuzztime=$(FUZZTIME) -run '^$$' ./internal/netrt/
	$(GO) test -fuzz=FuzzHostileProofFrame -fuzztime=$(FUZZTIME) -run '^$$' ./internal/netrt/
	$(GO) test -fuzz=FuzzDecodeProof -fuzztime=$(FUZZTIME) -run '^$$' ./internal/merkle/
	$(GO) test -fuzz=FuzzVerifyHostileProof -fuzztime=$(FUZZTIME) -run '^$$' ./internal/merkle/

# Optional static analysis + vulnerability scan; needs network the first
# time to fetch the pinned tools. Non-blocking in CI (see ci.yml).
lint:
	$(GO) run $(STATICCHECK) ./...
	$(GO) run $(GOVULNCHECK) ./...

# Merged coverage profile over every package (counting cross-package
# coverage via -coverpkg, so e.g. protocol code exercised from dst tests
# counts). Writes coverage.out + a per-function summary.
cover:
	$(GO) test -shuffle=on -timeout $(TIMEOUT) -covermode=atomic -coverpkg=./... -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# Deterministic-simulation harness deep gate (see docs/TESTING.md):
#  0. the pinned replay corpus, byte for byte, through the shipped binary;
#  1. the dst suite (record/replay determinism, shrinker, replay corpus);
#  2. strategy search over the Byzantine-capable protocols below their β
#     thresholds — fixed seeds make every run reproducible; any finding
#     writes a .dsr replay + .jsonl trace under dst-findings/ and fails;
#  3. positive control: against the deliberately weakened committee the
#     same search MUST find a violation, or the harness itself is broken.
DST_BUDGET ?= 3m
dst-search:
	$(GO) run ./cmd/drshrink verify internal/dst/testdata/replays/*.dsr
	$(GO) test -count=1 -timeout $(TIMEOUT) ./internal/dst/ ./internal/adversary/
	$(GO) run ./cmd/drshrink search -protocol committee  -n 4 -t 1 -L 32 -seed 101 -strategies 48 -schedules 6 -budget $(DST_BUDGET) -out-dir dst-findings
	$(GO) run ./cmd/drshrink search -protocol committee  -n 7 -t 3 -L 70 -seed 102 -strategies 24 -schedules 4 -budget $(DST_BUDGET) -out-dir dst-findings
	$(GO) run ./cmd/drshrink search -protocol twocycle   -n 4 -t 1 -L 32 -seed 103 -strategies 24 -schedules 4 -budget $(DST_BUDGET) -out-dir dst-findings
	$(GO) run ./cmd/drshrink search -protocol multicycle -n 4 -t 1 -L 32 -seed 104 -strategies 24 -schedules 4 -budget $(DST_BUDGET) -out-dir dst-findings
	@if $(GO) run ./cmd/drshrink search -protocol committee-weak -n 4 -t 1 -L 16 -seed 1 -strategies 16 -schedules 4 -max-findings 1 >/dev/null 2>&1; then \
		echo "dst-search: positive control FAILED: no violation found against committee-weak"; exit 1; \
	else echo "dst-search: positive control ok (committee-weak violation found)"; fi

# Regenerate the checked-in replay regression corpus (after a deliberate
# engine/format change; bump dst.Version first).
dst-regen:
	DST_GENERATE=1 $(GO) test -count=1 -run TestGenerateReplayCorpus ./internal/dst/

# Hardening gate (see docs/HARDENING.md):
#  1. the harden package suite plus the pinned end-to-end regressions
#     (Byzantine-majority wrong output detected, escalated, corrected;
#     warm start re-queries zero verified bits);
#  2. the strategy search re-targeted at hardened runs: every violation
#     the search finds against the safe protocols must be corrected by
#     the supervisor (findings land in harden-findings/ as .dsr replays);
#  3. positive control: against committee-weak the search MUST find
#     violations AND the supervisor must correct every one of them.
harden:
	$(GO) test -count=1 -timeout $(TIMEOUT) ./internal/harden/
	$(GO) test -count=1 -timeout $(TIMEOUT) -run 'TestHardened|TestUnhardened|TestOptionValidationMatrix' ./download/
	$(GO) run ./cmd/drshrink search -protocol committee -n 4 -t 1 -L 32 -seed 201 -strategies 24 -schedules 4 -no-shrink -harden -out-dir harden-findings
	$(GO) run ./cmd/drshrink search -protocol twocycle  -n 4 -t 1 -L 32 -seed 202 -strategies 16 -schedules 4 -no-shrink -harden -out-dir harden-findings
	$(GO) run ./cmd/drshrink search -protocol committee-weak -n 4 -t 1 -L 16 -seed 203 -strategies 16 -schedules 4 -no-shrink -harden -expect-finding -out-dir harden-findings

# Line counts of the Go sources: non-test Go outside benchmark/ (the
# library, CLIs and examples), all Go under benchmark/, and _test.go files
# anywhere. Informational, not a gate.
GOFILES = find . -path ./.git -prune -o -name '*.go'
loc:
	@printf '%-36s %7d\n' 'non-test Go outside benchmark/' $$($(GOFILES) ! -name '*_test.go' ! -path './benchmark/*' -print | xargs cat | wc -l)
	@printf '%-36s %7d\n' 'Go under benchmark/' $$($(GOFILES) -path './benchmark/*' -print | xargs cat | wc -l)
	@printf '%-36s %7d\n' '_test.go' $$($(GOFILES) -name '*_test.go' -print | xargs cat | wc -l)

# Scratch outputs only — committed testdata (fuzz seed corpora, replay
# regression files) must survive a clean.
clean:
	rm -rf bench_output.txt experiments_full.txt coverage.out dst-findings harden-findings storm-findings load
