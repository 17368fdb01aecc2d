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
# scenario through the matcher × eval-mode × fault-schedule matrix —
# including the sharded-scheduler variants (-shards 1 and 8) — and
# require identical outcomes. Divergences print a seed + minimized fault
# schedule as the repro recipe.
go test -race -count=1 ./internal/conformance

# Bytecode-vm leg: the cross-mode equivalence table, step-limit and hook
# parity (Trace plus DispatchHook, and DispatchHook alone on the fast
# paths), the hooked-loop and proc-call allocation guards, golden
# disassembly, and the mutation check proving the differential harness
# has teeth — all under the race detector — plus the engine's default
# evaluator, its eval ring events (one sequence in every mode, stamped at
# each dispatch's end) and the allocation and hook-call guards on the
# script workload's Tcl half (an unwatched engine hooks only the seeded
# sample of its dispatches), a goexpect run of a shipped script on the
# default vm evaluator, and one with -evalmode classic so the referee
# stays exercised end to end through the CLI.
go test -race -count=1 -run 'TestVM|TestEvalMode|TestEvalCacheStats|TestProcCallAllocs' ./internal/tcl
go test -race -count=1 -run 'TestEvalEventsModeNeutral|TestEvalEventStampIsDispatchEnd|TestEngineDefaultsToVM|TestScriptDialogueAllocs|TestScriptDialogueHookCalls' ./internal/core
go run ./cmd/goexpect -transport pipe -sims -q scripts/passwd.exp >/dev/null
go run ./cmd/goexpect -evalmode classic -transport pipe -sims -q scripts/passwd.exp >/dev/null

# Sharded-scheduler matrix leg: the shard unit tests (among them the
# parked-op tables, whose rows are a pump session, a one-shard session
# and a pipe session spawned with a scheduler) plus a goexpect run
# under -shards, proving the flag-wired path end to end. The spawn-vs-Stop
# race (a registration must never reach a loop that already drained) is
# timing-dependent, so it reruns ten times under the race detector.
go test -race -count=1 -run 'Shard|Scheduler' ./internal/core
go test -race -count=10 -run 'TestSchedulerStopRacingSpawn' ./internal/core
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
# trip (a stream's served count must settle before its CLOSE is sent),
# the drain tests, and the gateway stdin queue (the demux loop parks on a
# full StreamBuf and a program's exit must unpark it) ten times under the
# race detector.
go test -race -count=10 -run 'FrameWriter|TestMuxRoundTripManySessionsOneConn|TestMuxShutdown|TestStdinQueue|TestMuxStreamBuf' ./internal/netx
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

# Evaluation snapshots + guards. Each benchreport run below regenerates
# one BENCH_*.json and then checks every row of cmd/benchreport/guards.go
# whose experiment ran; the rows carry the bounds and their reasons.
# Rows that compare against a committed snapshot read it before -json
# rewrites it.
#
# Hot-path benchmarks (E15) and flight-recorder overhead (E16).
go run ./cmd/benchreport -exp e15,e16 -json BENCH_3.json

# Shard-scaling session sweep (E17), against the committed BENCH_4.json.
go run ./cmd/benchreport -exp e17 -json BENCH_4.json

# Network scaling (E18): build expectd, run the loopback socket sweep (64
# → 10k sessions against one daemon), and require a clean SIGTERM drain.
go run ./cmd/benchreport -exp e18 -json BENCH_5.json

# Zero-copy ingest (E19): the socket sweep on the segment-ownership path.
go run ./cmd/benchreport -exp e19 -json BENCH_6.json

# Replay economics (E20): journal and checkpoint pricing, against the
# committed BENCH_7.json.
go run ./cmd/benchreport -exp e20 -json BENCH_7.json

# Telemetry plane leg: the registry/exposition unit tier and the admin
# endpoint battery under the race detector, then the two end-to-end
# checks — /debug/sessions agreeing with the load workbench's
# conservation law at a parked instant, the expectd admin protocol
# (admin line before ready, plane readable mid-drain, listener closed
# last), and the gateway's write-queue gauges on a live expectd -mux —
# plus the parked-op tables: a parked expect shows in Session.Info,
# Engine.SessionInfos and Session.Checkpoint on every kind of session.
go test -race -count=1 ./internal/metrics ./internal/admin
go test -race -count=1 -run 'TestShardSnapshotSeesParkedOp|TestSchedulerCheckpointSeesParkedOp' ./internal/core
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

# Telemetry economics (E21).
go run ./cmd/benchreport -exp e21 -json BENCH_8.json

# Bytecode-vm economics (E22).
go run ./cmd/benchreport -exp e22 -json BENCH_9.json

# Gateway scaling (E23): build expectd, start two -mux gateway processes,
# and drive 100k concurrent sessions multiplexed over ≤64 pooled TCP
# connections per process; both gateways must drain clean on SIGTERM.
go run ./cmd/benchreport -exp e23 -json BENCH_10.json
