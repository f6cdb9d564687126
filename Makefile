# Zmail reproduction build targets.
#
# `make test` is the tier-1 gate used by CI and the roadmap; `make race`
# is the concurrency gate for the striped-ledger work and must also stay
# green. `make check` is the full pre-merge sweep: tier-1, race, the
# benchmark smoke test, chaos, fuzz smoke, and determinism.

GO ?= go

.PHONY: build fmt test race bench bench-record bench-smoke bench-pair determinism chaos fuzz-smoke golden obsv wal cluster check all

all: build test

build:
	$(GO) build ./...

# Formatting gate: any file gofmt would rewrite fails the target.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Tier-1: compile everything, vet it, and run the full test suite,
# which includes the root package's Examples (the paper's tours): go
# test runs each and checks what it prints against its Output block.
# -shuffle=on randomizes test and subtest order so order-dependent
# tests fail here instead of surprising a later refactor.
test: build
	$(GO) vet ./...
	$(GO) test -shuffle=on ./...

# Concurrency gate: the whole suite under the race detector, including
# the parallel conservation/antisymmetry property tests, the isp lock
# rank test (TestLockRanks, DESIGN.md decision 8) and the guard
# hammers, which call every exported read method of the bank, isp,
# mempool and core daemons' shared objects while one goroutine drives
# their writers (DESIGN.md decision 14).
race:
	$(GO) test -race ./...

# Ledger, relay, data-path and control-plane benchmarks, serial vs parallel.
bench:
	$(GO) test -run xxx -bench 'EngineSend|EngineSubmitAsync|WorldStep|ISPSubmit|ISPReceive|NodeRelay|NodeListFanout|SMTPTxn|MailCodec' -benchmem .
	$(GO) test -run xxx -bench 'BuyHandling|BankBatchOrder' -benchmem ./internal/bank/

# Record the hot-path, batching, relay, message data path and
# checkpoint/replay micro-benchmarks as BENCH_$(N).json, N being the
# change's number: each benchmark runs five times, and the record keeps
# the median ns/op, B/op and allocs/op with their min and max, the
# machine (goos, goarch, cpu), and the derived WAL-vs-JSON checkpoint
# and async-admission ratios. A record profiles one machine;
# end-to-end claims are made with bench-pair below.
#   make bench-record N=31
bench-record:
	@test -n "$(N)" || { echo "usage: make bench-record N=<number>"; exit 2; }
	{ $(GO) test -run xxx -count=5 -bench 'EngineSend|EngineSubmitAsync|WorldStep|ISPSubmit|ISPReceive|NodeRelay|NodeListFanout|SMTPTxn|MailCodec' -benchmem . && \
	  $(GO) test -run xxx -count=5 -bench 'BuyHandling|BankBatchOrder' -benchmem ./internal/bank/ && \
	  $(GO) test -run xxx -count=5 -bench 'WALCheckpoint|WALReplay' -benchmem ./internal/isp/ ./internal/persist/ ; } \
		| $(GO) run ./cmd/benchjson -out BENCH_$(N).json
	cat BENCH_$(N).json

# Smoke test of the federation benchmark (bench/, its own module, so
# not in ./...): every workload end to end on a shrunk federation,
# through the same post-run gate.
bench-smoke:
	$(GO) test -C bench ./...

# Paired end-to-end comparison of a base revision against the working
# tree on one workload of the federation benchmark (bench/run.sh), the
# procedure a performance claim has to pass: ten alternated 15 s runs
# per side, then each side's median and quartiles and the pairs won,
# for METRIC or else for every end-to-end metric.
#   make bench-pair BASE=HEAD~1 WORKLOAD=remote_small [METRIC=deliveries_per_s] [SEED=1]
bench-pair:
	SEED=$(or $(SEED),1) bash scripts/bench-pair.sh $(BASE) $(WORKLOAD) $(METRIC)

# Seeded experiment output must be bit-identical run to run.
determinism:
	$(GO) run ./cmd/zsim > /tmp/zsim_a.txt
	$(GO) run ./cmd/zsim > /tmp/zsim_b.txt
	diff /tmp/zsim_a.txt /tmp/zsim_b.txt && echo deterministic

# Crash-recovery gate: the E20 chaos experiment end to end, plus every
# crash/restart/recovery test across the tree.
chaos:
	$(GO) run ./cmd/zsim -experiment E20
	$(GO) test -run 'Chaos|Crash|Restart|Replay|Recover|Generate|Validate|Auditor|Antisymmetry' \
		./internal/simnet/ ./internal/sim/ ./internal/persist/ ./internal/chaos/ -v

# Fuzz smoke — the wire codec, the mail codec and SMTP DATA framing
# against their frozen references, and the WAL's recovery scan: each
# target runs briefly; go test allows one -fuzz pattern per invocation,
# hence the loop.
fuzz-smoke:
	for f in wire/FuzzDecodeEnvelope wire/FuzzDecodeBodies wire/FuzzReadEnvelope \
			mail/FuzzMessageRoundTrip smtp/FuzzDataFraming persist/FuzzScanSegment; do \
		$(GO) test -run xxx -fuzz "^$${f#*/}$$" -fuzztime 5s ./internal/$${f%/*}/ || exit 1; \
	done

# Regenerate the committed golden outputs after an intentional
# experiment change: seed 1 (cmd/zsim's TestGoldenOutput diffs against
# it) and seed 7 (internal/experiments' TestAllExperimentsPass).
golden:
	$(GO) run ./cmd/zsim > zsim_output.txt
	$(GO) run ./cmd/zsim -seed 7 > internal/experiments/testdata/seed7.golden

# Observability smoke: boot a zmaild on ephemeral ports with the admin
# listener, scrape /metrics, parse the exposition, and read a ledger
# page.
obsv:
	$(GO) test -run TestObsvSmoke -v ./cmd/zmaild/

# WAL durability gate: the crash-debris tables (torn tail, truncated
# length prefix, corrupt checksum, snapshot/truncate crash window,
# duplicate segment replay), the seeded replay-equivalence check, the
# isp and bank workloads that recover a copy of the live log after
# every step (WAL completeness, DESIGN.md decision 13),
# zmaild's two boot-order regressions (a -wal daemon closed with mail
# still queued must log every debit before the WAL closes; a restarted
# one must not answer a peer's relay before its replay is done), and
# core's bank boot-order regression (a restarted bank applies an order
# that arrives at once to the recovered ledger, DESIGN.md decision 16)
# and /healthz check (503 once a WAL append fails). CI runs this
# target as its "WAL durability gate" step.
wal:
	$(GO) test -run 'WAL' ./internal/persist/ ./internal/isp/ ./internal/bank/ ./internal/sim/ ./internal/core/ ./cmd/zmaild/ -v

# Real-TCP federation suite, verbose (regenerates EXPERIMENTS.md E21):
# 2 ISPs + a two-level zbank hierarchy on loopback carrying paid,
# multi-recipient and zombie mail, an audit round, the scraped /metrics
# reconciliation, conservation across every ledger and WAL restart
# recovery, under -race. `make race` already runs it, so check does not.
cluster:
	$(GO) test -race -v ./internal/cluster/

# Full pre-merge sweep.
check: fmt test race bench-smoke chaos fuzz-smoke determinism obsv wal
