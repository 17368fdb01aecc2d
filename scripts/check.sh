#!/bin/sh
# Repo health gate: formatting, vet, and the full test suite under the race
# detector. CI and pre-commit both run exactly this.
set -e
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed:" >&2
	echo "$fmt" >&2
	exit 1
fi

go vet ./...

# Unit tier: everything except the wall-clock-heavy conformance script
# matrix (which gates itself on -short and runs in full below).
go test -race -short ./...

# Order-independence leg: rerun the unit tier with shuffled test and
# subtest order. Tests that secretly depend on a predecessor's side
# effects (shared binaries, leftover sessions, package state) fail here
# with the shuffle seed printed for replay.
go test -count=1 -shuffle=on -short ./...

# Differential conformance: replay every shipped script and engine
# scenario through the matcher × eval-cache × fault-schedule matrix —
# including the sharded-scheduler variants (-shards 1 and 8) — and
# require identical outcomes. Divergences print a seed + minimized fault
# schedule as the repro recipe.
go test -race -count=1 ./internal/conformance

# Bytecode-vm leg: the cross-mode equivalence table, step-limit and hook
# parity, golden disassembly, and the mutation check proving the
# differential harness has teeth — all under the race detector, plus a
# goexpect run of a shipped script with -evalmode vm.
go test -race -count=1 -run 'TestVM|TestEvalMode' ./internal/tcl
go run ./cmd/goexpect -evalmode vm -transport pipe -sims -q scripts/passwd.exp >/dev/null

# Sharded-scheduler matrix leg: the shard unit tests plus a goexpect run
# under -shards, proving the flag-wired path end to end.
go test -race -count=1 -run 'Shard|Scheduler' ./internal/core
go run ./cmd/goexpect -shards 8 -transport pipe -sims -q scripts/passwd.exp >/dev/null

# Soak tier: 2000 sessions across 8 shards for 5s under the race
# detector (halting on the first report), with leak, drop, and
# conservation checks. Skipped from the unit tier by -short.
GORACE=halt_on_error=1 go test -race -count=1 -run TestSoak2kSessions ./internal/load

# Replay leg: the journal/replay engine unit tier plus the journaled
# conformance matrix under the race detector. Every scenario is recorded
# to a JSONL journal and re-driven byte-for-byte; dispositions must be
# identical, and any divergence carries its journal as the repro artifact.
go test -race -count=1 ./internal/trace ./internal/replay
go test -race -count=1 -run 'Journal|Replay' ./internal/conformance

# Crash/recovery battery: SIGKILL expectd mid-soak at a seeded point with
# 2k live sessions, restore every session from its checkpoint against a
# fresh daemon, and require the conservation law (matches + timeouts +
# EOFs == dialogues) with zero lost dialogues — plus the SIGUSR1
# checkpoint-all / -restore round-trip through a live driven daemon.
go test -race -count=1 -run 'TestCrashRecoverySoak|TestExpectdCheckpointRestore' ./internal/load

# Gateway leg: the framed-protocol codec tier, the mux client/server
# battery (quota refusal, head-of-line isolation, GOAWAY-then-drain), the
# transport-contract and conformance mux variants, the gateway-mode
# workbench conservation run, and the mux crash battery — SIGKILL a
# gateway hosting 2048 multiplexed sessions, restore every one from its
# checkpoint over a fresh pooled connection, and require conservation.
go test -race -count=1 ./internal/netx/mux ./internal/netx
# The frame writer's flusher, DATA merge and drain are reached by several
# goroutines per connection: rerun its battery, the many-sessions round
# trip (a stream's served count must settle before its CLOSE is sent) and
# the drain tests ten times under the race detector.
go test -race -count=10 -run 'FrameWriter|TestMuxRoundTripManySessionsOneConn|TestMuxShutdown' ./internal/netx
go test -race -count=1 -run 'TestTransportContract/mux|TestConformanceScenarios' ./internal/proc ./internal/conformance
go test -race -count=1 -run 'TestMuxModeConservation|TestMuxCrashRecoverySoak' ./internal/load

# Fuzz smoke: a short budget per differential target. The real corpora
# live in testdata/fuzz/ and always run as plain tests above; this adds a
# few CPU-minutes of fresh exploration to every gate.
go test -race -fuzz=FuzzGlobEquivalence -fuzztime=10s ./internal/pattern
go test -race -fuzz=FuzzEvalCacheEquivalence -fuzztime=10s ./internal/tcl
go test -race -fuzz=FuzzVMEquivalence -fuzztime=10s ./internal/tcl
go test -race -fuzz=FuzzParseRoundTrip -fuzztime=10s ./internal/tcl
go test -race -fuzz=FuzzShardHash -fuzztime=10s ./internal/core
go test -race -fuzz=FuzzJournalRoundTrip -fuzztime=10s ./internal/trace
go test -race -fuzz=FuzzMuxFrameRoundTrip -fuzztime=10s ./internal/netx/mux

# Perf snapshot + trace-overhead guard: regenerate the hot-path benchmarks
# (E15: eval/glob/gap-buffer) and the flight-recorder overhead + latency
# histograms (E16) into BENCH_3.json, and fail if a present-but-disabled
# recorder costs the expect hot loop more than 2% per wakeup.
go run ./cmd/benchreport -exp e15,e16 -json BENCH_3.json -guard 2

# Shard-scaling snapshot + tail-latency guard: rerun the E17 session
# sweep against the committed BENCH_4.json and fail if the 1k-session
# sharded p99 wakeup-to-match latency regressed by more than 10%, then
# refresh the snapshot.
go run ./cmd/benchreport -exp e17 -baseline BENCH_4.json -p99guard 10 -json BENCH_4.json

# Network-scaling snapshot + guard: build expectd, run the E18 loopback
# socket sweep (64 → 10k sessions against one daemon), require the
# daemon to drain clean on SIGTERM, and fail if 10k sharded costs more
# than 2x the 64-session goroutine baseline per dialogue.
go run ./cmd/benchreport -exp e18 -json BENCH_5.json -netguard 2

# Zero-copy ingest snapshot + guards: rerun the socket sweep on the
# segment-ownership path against the frozen copying referee. memguard:
# copied bytes and ingest allocations per dialogue at 10k sharded
# sessions must both drop >= 40% vs legacy. goroguard: ingest goroutines
# at 10k connections stay O(shards) — at most 256 above the drivers,
# not one reader per connection.
go run ./cmd/benchreport -exp e19 -json BENCH_6.json -memguard 40 -goroguard 256

# Replay economics snapshot + guards: rerun the E20 journal/checkpoint
# pricing. replayguard: a journal-armed soak may cost at most 10% more
# per dialogue than ring-only. ckptguard: the checkpoint/restore
# round-trip p99 may not regress more than 25% against the committed
# BENCH_7.json, then refresh the snapshot.
go run ./cmd/benchreport -exp e20 -baseline BENCH_7.json -replayguard 10 -ckptguard 25 -json BENCH_7.json

# Telemetry plane leg: the registry/exposition unit tier and the admin
# endpoint battery under the race detector, then the two end-to-end
# checks — /debug/sessions agreeing with the load workbench's
# conservation law at a parked instant, the expectd admin protocol
# (admin line before ready, plane readable mid-drain, listener closed
# last), and the gateway's write-queue gauges on a live expectd -mux.
go test -race -count=1 ./internal/metrics ./internal/admin
go test -race -count=1 -run 'TestAdminSessionsConservation|TestExpectdAdminProtocol|TestExpectdMuxWriteQueueGauges' ./internal/load

# Live-daemon curl leg: boot expectd with -admin, scrape /metrics and
# /debug/sessions with curl against the advertised address, and require
# well-formed output plus a clean SIGTERM exit.
tmpd=$(mktemp -d)
go build -o "$tmpd/expectd" ./cmd/expectd
"$tmpd/expectd" -serve echo -admin 127.0.0.1:0 >"$tmpd/out" &
epid=$!
for _ in $(seq 1 100); do
	grep -q '^expectd: ready$' "$tmpd/out" 2>/dev/null && break
	sleep 0.1
done
grep -q '^expectd: ready$' "$tmpd/out"
adminaddr=$(awk '/^expectd: admin /{print $3}' "$tmpd/out")
curl -fsS "http://$adminaddr/metrics" | grep -q '# TYPE'
curl -fsS "http://$adminaddr/debug/sessions" | grep -q '"sessions"'
kill -TERM "$epid"
wait "$epid"
rm -rf "$tmpd"

# Telemetry economics snapshot + guard: rerun the E21 pricing into
# BENCH_8.json. statsguard: scraping /metrics at 1 Hz may cost at most
# 3% per dialogue, and an armed-but-unscraped plane at most a third of
# that (1%).
go run ./cmd/benchreport -exp e21 -json BENCH_8.json -statsguard 3

# Bytecode-vm economics snapshot + guard: rerun the E22 pricing into
# BENCH_9.json. vmguard: the vm must stay at least 3x faster than the
# cached evaluator on the E15 eval and expr benchmarks, and its
# differential sweep must show zero divergences from the classic referee.
go run ./cmd/benchreport -exp e22 -json BENCH_9.json -vmguard 3

# Gateway-scaling snapshot + guard: build expectd, start two -mux
# gateway processes, and drive the E23 sweep — 100k concurrent sessions
# multiplexed over ≤64 pooled TCP connections per process — into
# BENCH_10.json. muxguard: the 100k-session per-dialogue cost may be at
# most 2x the committed 10k one-socket-per-session baseline (BENCH_5's
# E18 sharded cell), and both gateways must drain clean on SIGTERM.
go run ./cmd/benchreport -exp e23 -json BENCH_10.json -muxguard 2
