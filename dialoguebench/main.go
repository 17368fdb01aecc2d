// Command dialoguebench prices one expect dialogue end to end and layer
// by layer, in the configuration the repository ships. It drives each
// layer from outside through its public entry points and checks every
// op's output.
//
// Usage (from the repository root; run.sh builds this command and
// expectd from the checkout first):
//
//	bash dialoguebench/run.sh --workload script --seed 1 --seconds 10 --trace 0
//
// Workloads (closed loop: each worker sends its next request only after
// its previous op completes):
//
//   - script: one Engine.Run("dialogue") on a core.NewEngine session with
//     shipped defaults (pump-driven, default evaluator, DispatchHook and
//     ring recorder armed, log_user 0) talking to the echo talker as a
//     virtual program. The proc builds its line in Tcl from a seeded
//     word/shift schedule, sends it, and folds the reply into a checksum
//     that must equal the one computed here. Loads tcl, core, pattern and
//     trace; bypasses netx and expectd. One worker.
//   - gateway-login: one whole login-sim session per op on a fresh
//     expectd -mux stream (SpawnMux, login, password, who, logout, EOF,
//     Close); a seeded one in eight first sends a wrong password and must
//     take the "Login incorrect" arm. Loads core, netx and expectd per
//     session; Tcl does nothing. Eight workers.
//   - gateway-bulk: one 32-64 KiB blob per op on a long-lived echo
//     stream; the match must be the blob's marker and the window must
//     forget at least N - match_max bytes. Loads netx, segment handoff
//     and match-buffer forgetting per byte. Four workers.
//
// --trace 0 prints the end-to-end metrics. The timed phase is shared
// among several fresh set-ups and runs in eighth-second blocks, each
// followed by a pass of a calibrator process; each block's timings are
// scaled to a reference host speed by the passes on either side of it
// (see calib.go), and the report prints the measured values beside them.
// A block in which the host stole more than 5% of the machine's CPU time
// is left out of the timing metrics, which cover every other block.
//
// --trace 1 runs the shipped stack and a traced twin in alternating
// blocks and prints the per-layer metrics: span self times by layer
// (which add up to the traced op time), counters the layers keep
// (Interp.Steps, EvalCacheStats, Recorder.Total, Profiler, IngestStats,
// MuxPool and Scheduler stats), and process counters read from /proc and
// getrusage. Spans are written to <out>/spans/ when the run ends. The
// last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workload fixes one workload's concurrency and warm-up.
type workload struct {
	name         string
	workers      int
	warmOps      int // untimed ops per worker before the timed phase
	gateway      bool
	streamsPerOp int64 // gateway streams each op opens (and expectd serves)
}

var workloads = []workload{
	{name: "script", workers: 1, warmOps: 2000},
	{name: "gateway-login", workers: 8, warmOps: 50, gateway: true, streamsPerOp: 1},
	{name: "gateway-bulk", workers: 4, warmOps: 50, gateway: true},
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median, and the timed phase is shared among the set-ups.
const setupReps = 10

// stealLimit is the share of the machine's CPU time the host may steal
// in a timed block before the block is left out of the timing metrics:
// an op the host stops for milliseconds lands in the tail however fast
// the program is.
const stealLimit = 0.05

// blockLen is one timed block; a calibration pass follows each.
const blockLen = time.Second / 8

// runSlack is how long a run may take beyond --seconds before the
// watchdog ends it as hung; set-up and teardown take a few seconds.
const runSlack = 2 * time.Minute

// stack is one set-up instance of a workload: its client state and, for
// the gateway workloads, its sessions on the current expectd.
type stack interface {
	// op runs one timed operation for worker w and checks its output.
	op(w int, tr *tracer) error
	// counters and levels read the layers' own accounting; they are
	// called only while no op runs.
	counters() layerCounters
	levels() layerLevels
	// live is how many gateway streams the stack keeps open between ops.
	live() int
	close() error
}

type bench struct {
	wl      workload
	seed    int64
	seconds int
	expectd string
	out     string
	nproc   int
	script  *scriptInputs

	gw      *expectd
	errs    errLog
	checks  []string // failed end-of-run checks
	warmErr int64
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "script, gateway-login or gateway-bulk")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "length of the timed phase")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		bin     = flag.String("expectd", "", "expectd binary built from this checkout (gateway workloads)")
		out     = flag.String("out", ".bench_build", "directory for the span log")
		calib   = flag.Bool("calibrator", false, "run as the calibrator process (started by the benchmark itself)")
	)
	flag.Parse()
	if *calib {
		return calibratorMain()
	}
	b := &bench{seed: *seed, seconds: *seconds, expectd: *bin, out: *out, nproc: runtime.GOMAXPROCS(0)}
	for _, wl := range workloads {
		if wl.name == *name {
			b.wl = wl
		}
	}
	switch {
	case b.wl.name == "":
		return usage("unknown workload %q", *name)
	case *seconds < 1:
		return usage("--seconds must be at least 1")
	case *traced != 0 && *traced != 1:
		return usage("--trace must be 0 or 1")
	case b.wl.gateway && *bin == "":
		return usage("--expectd is required for %s", b.wl.name)
	}
	b.script = newScriptInputs(*seed)

	limit := time.Duration(*seconds)*time.Second + runSlack
	// A gateway still running at a fatal exit gets SIGKILL from the
	// kernel (Pdeathsig).
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "dialoguebench: run exceeded %v\n", limit)
		os.Exit(1)
	})
	defer watchdog.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "dialoguebench: %v\n", s)
		os.Exit(1)
	}()

	var res *result
	var err error
	if *traced == 1 {
		res, err = b.runTraced()
	} else {
		res, err = b.runUntraced()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dialoguebench: %s: %v\n", b.wl.name, err)
		if b.gw != nil {
			b.gw.kill()
		}
		return 1
	}
	b.errs.print()
	for _, c := range b.checks {
		fmt.Fprintf(os.Stderr, "dialoguebench: check failed: %s\n", c)
	}
	res.correct = res.failed == 0 && b.warmErr == 0 && len(b.checks) == 0
	res.print(b)
	return 0
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "dialoguebench: "+format+"\n", args...)
	flag.Usage()
	return 2
}

func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.checks = append(b.checks, fmt.Sprintf(format, args...))
	}
}

func (b *bench) checkErr(err error) {
	if err != nil {
		b.checks = append(b.checks, err.Error())
	}
}

func (b *bench) newStack(traced bool) (stack, error) {
	switch b.wl.name {
	case "script":
		return newScriptStack(b.script, traced)
	case "gateway-login":
		return newLoginStack(b.seed, b.gw.mux, b.wl.workers, b.nproc, traced), nil
	default:
		return newBulkStack(b.seed, b.gw.mux, b.wl.workers, b.nproc, traced)
	}
}

// setUp starts a gateway (for the gateway workloads) and one warmed-up
// stack per entry of traced.
func (b *bench) setUp(traced ...bool) ([]stack, error) {
	if b.wl.gateway {
		g, err := startExpectd(b.expectd)
		if err != nil {
			return nil, err
		}
		b.gw = g
	}
	var stacks []stack
	for _, t := range traced {
		st, err := b.newStack(t)
		if err != nil {
			b.tearDown(stacks)
			return nil, err
		}
		stacks = append(stacks, st)
		res := b.runOps(st, b.wl.warmOps)
		b.warmErr += res.failed
	}
	return stacks, nil
}

// tearDown closes the stacks and, on the gateway workloads, requires
// that every stream ever opened was served, none was refused, and
// expectd drains clean on SIGTERM.
func (b *bench) tearDown(stacks []stack) {
	var opened int64
	for _, st := range stacks {
		opened += st.counters()[cOpened]
		b.checkErr(st.close())
	}
	if b.gw == nil {
		return
	}
	st, err := b.gw.quiesce(0)
	b.checkErr(err)
	b.check(int64(st.served) == opened, "expectd served %v streams, the pools opened %d", st.served, opened)
	b.check(st.refused == 0, "expectd refused %v streams", st.refused)
	b.checkErr(b.gw.stop())
	b.gw = nil
}

// blockResult is what one stretch of closed-loop ops did.
type blockResult struct {
	ops, failed int64
	elapsed     time.Duration
}

func (a *blockResult) add(d blockResult) {
	a.ops += d.ops
	a.failed += d.failed
	a.elapsed += d.elapsed
}

// runBlock runs every worker in a closed loop for d. Ops that start
// before the deadline run to completion and count; lat, when non-nil,
// records each checked op's latency in nanoseconds.
func (b *bench) runBlock(st stack, d time.Duration, trs []*tracer, lat *latStore) blockResult {
	return b.loop(st, func(_ int, now time.Time, deadline time.Time) bool { return now.Before(deadline) }, d, trs, lat)
}

// runOps runs n untimed ops on every worker.
func (b *bench) runOps(st stack, n int) blockResult {
	return b.loop(st, func(k int, _, _ time.Time) bool { return k < n }, 0, nil, nil)
}

func (b *bench) loop(st stack, more func(k int, now, deadline time.Time) bool, d time.Duration, trs []*tracer, lat *latStore) blockResult {
	var wg sync.WaitGroup
	per := make([]blockResult, b.wl.workers)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < b.wl.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var tr *tracer
			if trs != nil {
				tr = trs[w]
			}
			r := &per[w]
			for k := 0; ; k++ {
				t0 := time.Now()
				if !more(k, t0, deadline) {
					return
				}
				err := st.op(w, tr)
				dt := time.Since(t0)
				r.ops++
				if err != nil {
					r.failed++
					b.errs.note(err)
					continue
				}
				if lat != nil {
					lat.add(w, int64(dt))
				}
			}
		}(w)
	}
	wg.Wait()
	total := blockResult{elapsed: time.Since(start)}
	for _, r := range per {
		total.ops += r.ops
		total.failed += r.failed
	}
	return total
}

// sample is every counter read at a block boundary.
type sample struct {
	client  procCounters
	mem     memCounters
	gateway procCounters
	layers  layerCounters
	host    hostCPU
}

func (b *bench) sample(st stack) (sample, error) {
	var s sample
	var err error
	if s.client, err = selfCounters(); err != nil {
		return s, err
	}
	s.mem = readMem()
	if b.gw != nil {
		if s.gateway, err = pidCounters(b.gw.pid()); err != nil {
			return s, err
		}
	}
	s.layers = st.counters()
	s.host, err = readHostCPU()
	return s, err
}

// phase accumulates the blocks of one kind.
type phase struct {
	blockResult
	client  procCounters
	mem     memCounters
	gateway procCounters
	layers  layerCounters
	host    hostCPU
}

// stealShare is the share of the machine's CPU time the host stole
// during the phase.
func (a *phase) stealShare() float64 { return per(a.host.steal, a.host.total) }

func (a *phase) add(d phase) {
	a.blockResult.add(d.blockResult)
	a.client.add(d.client)
	a.mem.add(d.mem)
	a.gateway.add(d.gateway)
	a.layers.add(d.layers)
	a.host.steal += d.host.steal
	a.host.total += d.host.total
}

// timed runs one block on st and charges it to ph.
func (b *bench) timed(ph *phase, st stack, d time.Duration, trs []*tracer, lat *latStore) error {
	s0, err := b.sample(st)
	if err != nil {
		return err
	}
	r := b.runBlock(st, d, trs, lat)
	s1, err := b.sample(st)
	if err != nil {
		return err
	}
	ph.blockResult.add(r)
	ph.client.add(s1.client.minus(s0.client))
	ph.mem.add(s1.mem.minus(s0.mem))
	ph.gateway.add(s1.gateway.minus(s0.gateway))
	ph.layers.add(s1.layers.minus(s0.layers))
	ph.host.steal += s1.host.steal - s0.host.steal
	ph.host.total += s1.host.total - s0.host.total
	return nil
}

// servedBefore scrapes the gateway before a timed phase; servedCheck
// after it requires that the served counter grew by exactly the streams
// the phase's ops opened, and that nothing was refused.
func (b *bench) servedBefore(stacks []stack) (float64, error) {
	if b.gw == nil {
		return 0, nil
	}
	st, err := b.gw.quiesce(liveStreams(stacks))
	return st.served, err
}

func (b *bench) servedCheck(stacks []stack, before float64, ops int64) (served, refused float64, err error) {
	if b.gw == nil {
		return 0, 0, nil
	}
	st, err := b.gw.quiesce(liveStreams(stacks))
	if err != nil {
		return 0, 0, err
	}
	served = st.served - before
	want := ops * b.wl.streamsPerOp
	b.check(int64(served) == want, "expectd served %v streams in the timed phase, want %d", served, want)
	b.check(st.refused == 0, "expectd refused %v streams", st.refused)
	return served, st.refused, nil
}

func liveStreams(stacks []stack) int {
	n := 0
	for _, st := range stacks {
		n += st.live()
	}
	return n
}

// timing is a set of timed blocks with their wall and CPU time scaled
// to the reference host speed.
type timing struct {
	phase
	blocks        int
	wallNs, cpuNs float64
}

func (t *timing) add(blk phase, wallSpeed, cpuSpeed float64) {
	t.phase.add(blk)
	t.blocks++
	t.wallNs += wallSpeed * float64(blk.elapsed)
	t.cpuNs += cpuSpeed * float64(blk.client.cpuNs+blk.gateway.cpuNs)
}

func (b *bench) runUntraced() (*result, error) {
	// The run sets up setupReps times, and each set-up serves an equal
	// share of the timed phase before it is torn down, so one run samples
	// several expectd and client process pairs instead of one and checks
	// every gateway's drain. A calibration pass runs before each set-up's
	// first block and after every block, while the stack is idle; each
	// block's timings are scaled by the passes on either side of it, and
	// each set-up time by the pass that follows it. Every block counts
	// toward attempted and failed.
	lat, err := newLatStore(filepath.Join(b.out, "lat"), b.wl.workers)
	if err != nil {
		return nil, err
	}
	defer lat.close()
	cal, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	blocks := int(time.Duration(b.seconds) * time.Second / blockLen)
	var (
		setups, rawSetups []float64
		all, clean        timing // every block, and those the host left alone
	)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		stacks, err := b.setUp(false)
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0).Seconds()
		st := stacks[0]
		before, err := b.servedBefore(stacks)
		if err != nil {
			return nil, err
		}
		prev, err := cal.pass()
		if err != nil {
			return nil, err
		}
		ws, _ := speeds(prev)
		setups, rawSetups = append(setups, setup*ws), append(rawSetups, setup)
		var seg phase
		for i := rep * blocks / setupReps; i < (rep+1)*blocks/setupReps; i++ {
			var blk phase
			if err := b.timed(&blk, st, blockLen, nil, lat); err != nil {
				return nil, err
			}
			next, err := cal.pass()
			if err != nil {
				return nil, err
			}
			ws, cs := speeds(prev, next)
			ok := blk.stealShare() <= stealLimit
			lat.endBlock(ws, ok)
			all.add(blk, ws, cs)
			if ok {
				clean.add(blk, ws, cs)
			}
			seg.add(blk)
			prev = next
		}
		if _, _, err := b.servedCheck(stacks, before, seg.ops); err != nil {
			return nil, err
		}
		b.checkLevels(st, seg)
		b.tearDown(stacks)
	}
	b.checkErr(cal.close())

	m, sel := &clean, fmt.Sprintf("%d of %d blocks, host stole %.1f%%", clean.blocks, all.blocks, 100*all.stealShare())
	if clean.ops == 0 {
		m, sel = &all, fmt.Sprintf("all %d blocks: the host stole more than %.0f%% of each", all.blocks, 100*stealLimit)
	}
	if m.ops == 0 {
		return nil, errors.New("no op completed in the timed phase")
	}
	// The latencies are read back only now, after the last VmHWM sample.
	measuredLats, lats, err := lat.sorted(m == &all)
	if err != nil {
		return nil, err
	}
	ws, cs := speeds(cal.passes...)
	host := fmt.Sprintf("host speed %.3f (wall) %.3f (CPU) over %d calibration passes", ws, cs, len(cal.passes))
	measured := func(v float64, unit string) string { return fmt.Sprintf("measured %.4g %s", v, unit) }
	res := &result{attempted: all.ops, failed: all.failed}
	res.set("ops_per_s", float64(m.ops)/(m.wallNs/1e9), "1/s", fmt.Sprintf("%s; %s; %s; %d workers",
		measured(float64(m.ops)/m.elapsed.Seconds(), "1/s"), sel, host, b.wl.workers))
	n := fmt.Sprintf("n=%d", len(lats))
	res.set("op_p50_us", percentile(lats, 0.50)/1e3, "us",
		fmt.Sprintf("%s; %s", n, measured(percentile(measuredLats, 0.50)/1e3, "us")))
	res.set("op_p99_us", percentile(lats, 0.99)/1e3, "us",
		fmt.Sprintf("%s, %d beyond; %s", n, len(lats)/100, measured(percentile(measuredLats, 0.99)/1e3, "us")))
	res.set("ok_ratio", per(all.ops-all.failed, all.ops), "ratio",
		fmt.Sprintf("fail_ratio=%g (%d of %d failed)", per(all.failed, all.ops), all.failed, all.ops))
	res.set("cpu_us_per_op", m.cpuNs/float64(m.ops)/1e3, "us", fmt.Sprintf("%s: client %.2f + expectd %.2f",
		measured(per(m.client.cpuNs+m.gateway.cpuNs, m.ops)/1e3, "us"),
		per(m.client.cpuNs, m.ops)/1e3, per(m.gateway.cpuNs, m.ops)/1e3))
	res.set("rss_peak_mb", float64(all.client.hwmKB+all.gateway.hwmKB)/1024, "MiB",
		fmt.Sprintf("client %.1f + expectd %.1f", float64(all.client.hwmKB)/1024, float64(all.gateway.hwmKB)/1024))
	res.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d; %s, the median of %v",
		len(setups), measured(median(rawSetups), "s"), fmtList(rawSetups)))
	return res, nil
}

// checkLevels holds the gateway sanity bounds: one stream per login, none
// on bulk, and never more pooled connections than processors.
func (b *bench) checkLevels(st stack, ph phase) {
	if !b.wl.gateway {
		return
	}
	want := ph.ops * b.wl.streamsPerOp
	b.check(ph.layers[cOpened] == want, "%d streams opened in %d ops, want %d", ph.layers[cOpened], ph.ops, want)
	lv := st.levels()
	b.check(lv.muxConns <= int64(b.nproc), "%d mux connections, want at most %d", lv.muxConns, b.nproc)
	b.check(lv.dropped == 0, "scheduler dropped %d events", lv.dropped)
}

func (b *bench) runTraced() (*result, error) {
	stacks, err := b.setUp(false, true)
	if err != nil {
		return nil, err
	}
	plain, traced := stacks[0], stacks[1]
	before, err := b.servedBefore(stacks)
	if err != nil {
		return nil, err
	}
	base := time.Now()
	trs := make([]*tracer, b.wl.workers)
	for w := range trs {
		trs[w] = newTracer(base, keepSpans/b.wl.workers)
	}
	// One plain and one traced half-second block per second of the run,
	// in ABBA order so drift favours neither side; the tracing overhead
	// is the median of the pairs' throughput ratios.
	var ph [2]phase // plain, traced
	var overhead []float64
	for i := 0; i < b.seconds; i++ {
		var rate [2]float64
		for j := 0; j < 2; j++ {
			mode := (i + j) % 2
			var blk phase
			if mode == 0 {
				err = b.timed(&blk, plain, time.Second/2, nil, nil)
			} else {
				err = b.timed(&blk, traced, time.Second/2, trs, nil)
			}
			if err != nil {
				return nil, err
			}
			ph[mode].add(blk)
			rate[mode] = float64(blk.ops) / blk.elapsed.Seconds()
		}
		overhead = append(overhead, 100*(1-rate[1]/rate[0]))
	}
	served, refused, err := b.servedCheck(stacks, before, ph[0].ops+ph[1].ops)
	if err != nil {
		return nil, err
	}
	b.checkLevels(plain, ph[0])
	b.checkLevels(traced, ph[1])
	lv := traced.levels()
	gwHWM := ph[0].gateway.hwmKB
	b.tearDown(stacks)

	tr := newTracer(base, 0)
	for _, t := range trs {
		tr.merge(t)
	}
	if err := os.MkdirAll(filepath.Join(b.out, "spans"), 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(b.out, "spans", fmt.Sprintf("%s-seed%d.tsv", b.wl.name, b.seed))
	if err := writeSpans(spanFile, trs); err != nil {
		return nil, err
	}

	p, t := &ph[0], &ph[1]
	lc := t.layers
	res := &result{attempted: p.ops + t.ops, failed: p.failed + t.failed}
	us := func(ns int64) float64 { return per(ns, tr.ops) / 1e3 }
	plainRate := float64(p.ops) / p.elapsed.Seconds()
	tracedRate := float64(t.ops) / t.elapsed.Seconds()

	res.set("tcl.self_us_per_op", us(tr.selfNs[layerTcl]), "us", "traced op minus its send/expect spans")
	res.set("tcl.dispatches_per_op", per(lc[cDispatches], t.ops), "count", "DispatchHook calls")
	res.set("tcl.steps_per_op", per(lc[cSteps], t.ops), "count", "Interp.Steps")
	res.set("tcl.eval_cache_hit_ratio", per(lc[cEvalHits], lc[cEvalHits]+lc[cEvalMisses]), "ratio",
		fmt.Sprintf("%d lookups", lc[cEvalHits]+lc[cEvalMisses]))
	res.set("trace.events_per_op", per(lc[cTraceEvents], t.ops), "count", "Recorder.Total")
	res.set("core.send_us_per_op", us(tr.kindNs[kindSend]), "us", "")
	res.set("core.expect_us_per_op", us(tr.kindNs[kindExpect]), "us", "self time: arm bodies are Tcl")
	res.set("core.spawn_us_per_op", us(tr.kindNs[kindSpawn]), "us", "")
	res.set("core.close_us_per_op", us(tr.kindNs[kindClose]), "us", "")
	res.set("core.expects_per_op", per(lc[cExpects], t.ops), "count", "")
	res.set("core.wakeups_per_expect", per(lc[cWakeups], lc[cExpects]), "count", "Profiler wakeup-to-match")
	res.set("core.sched_queue_peak", float64(lv.queuePeak), "count", "max over shards")
	res.set("core.sched_dropped", float64(lv.dropped), "count", "")
	res.set("pattern.match_us_per_op", per(lc[cMatchNs], t.ops)/1e3, "us", "Profiler PhaseMatch")
	res.set("pattern.compile_cache_hit_ratio", per(lc[cPatHits], lc[cPatHits]+lc[cPatMisses]), "ratio",
		fmt.Sprintf("%d lookups", lc[cPatHits]+lc[cPatMisses]))
	res.set("netx.bytes_copied_per_op", per(lc[cCopied], t.ops), "B", "")
	res.set("netx.bytes_handed_off_per_op", per(lc[cHandedOff], t.ops), "B", "")
	res.set("netx.ingest_allocs_per_op", per(lc[cIngestAllocs], t.ops), "count", "")
	res.set("netx.segment_reuse_ratio", per(lc[cReuses], lc[cLeases]), "ratio", fmt.Sprintf("%d leases", lc[cLeases]))
	res.set("netx.streams_opened_per_op", per(lc[cOpened], t.ops), "count", "")
	res.set("netx.mux_conns", float64(lv.muxConns), "count", fmt.Sprintf("at most %d", b.nproc))
	res.set("expectd.cpu_us_per_op", per(p.gateway.cpuNs, p.ops)/1e3, "us", "shipped blocks")
	res.set("expectd.syscalls_per_op", per(p.gateway.syscalls, p.ops), "count", "read/write family")
	res.set("expectd.ctx_switches_per_op", per(p.gateway.ctxSwitches, p.ops), "count", "")
	res.set("expectd.rss_peak_mb", float64(gwHWM)/1024, "MiB", "VmHWM")
	res.set("expectd.sessions_served_per_op", per(int64(served), p.ops+t.ops), "count", "admin /metrics")
	res.set("expectd.refused", refused, "count", "admin /metrics")
	res.set("client.cpu_us_per_op", per(p.client.cpuNs, p.ops)/1e3, "us", "shipped blocks")
	res.set("client.syscalls_per_op", per(p.client.syscalls, p.ops), "count", "read/write family")
	res.set("client.ctx_switches_per_op", per(p.client.ctxSwitches, p.ops), "count", "")
	res.set("client.mallocs_per_op", per(p.mem.mallocs, p.ops), "count", "")
	res.set("client.alloc_bytes_per_op", per(p.mem.allocBytes, p.ops), "B", "")
	res.set("client.gc_per_kop", 1e3*per(p.mem.gcs, p.ops), "count", "")
	res.set("client.rss_peak_mb", float64(p.client.hwmKB)/1024, "MiB", "VmHWM, both stacks")
	res.set("bench.self_us_per_op", us(tr.selfNs[layerBench]), "us", "the benchmark's own code in the op span")
	res.set("bench.traced_op_us", us(tr.opNs), "us", fmt.Sprintf("%d traced ops", tr.ops))
	res.set("bench.trace_overhead_pct", median(overhead), "%",
		fmt.Sprintf("median of %d paired blocks; shipped %.1f ops/s vs traced %.1f ops/s", len(overhead), plainRate, tracedRate))
	res.split = selfSplit(tr)
	res.notes = append(res.notes, "spans: "+spanFile)
	return res, nil
}

// selfSplit lists the traced per-op self times by layer; by
// construction they add up to the traced op time.
func selfSplit(tr *tracer) []string {
	if tr.ops == 0 {
		return nil
	}
	us := func(ns int64) float64 { return float64(ns) / float64(tr.ops) / 1e3 }
	total := us(tr.opNs)
	var rows []string
	row := func(name string, v float64) {
		rows = append(rows, fmt.Sprintf("  %-22s %10.3f us  %5.1f%%", name, v, 100*v/total))
	}
	row("bench (op span self)", us(tr.selfNs[layerBench]))
	row("tcl", us(tr.selfNs[layerTcl]))
	for _, k := range []spanKind{kindSpawn, kindSend, kindExpect, kindClose} {
		row("core."+kindNames[k], us(tr.kindNs[k]))
	}
	rows = append(rows, fmt.Sprintf("  %-22s %10.3f us  (sum %.3f us)", "traced op", total,
		us(tr.selfNs[layerBench]+tr.selfNs[layerTcl]+tr.selfNs[layerCore])))
	return rows
}

// result is one run's report.
type result struct {
	correct           bool
	attempted, failed int64
	names             []string
	metrics           map[string]metric
	detail            map[string]string
	split             []string
	notes             []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64, unit, detail string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
		r.detail = make(map[string]string)
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.detail[name] = detail
}

func (r *result) print(b *bench) {
	fmt.Printf("dialoguebench %s seed=%d seconds=%d nproc=%d workers=%d\n", b.wl.name, b.seed, b.seconds, b.nproc, b.wl.workers)
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("  %-34s %14.4f %-6s %s\n", n, m.Value, m.Unit, r.detail[n])
	}
	if len(r.split) > 0 {
		fmt.Println("traced per-op self time by layer:")
		for _, row := range r.split {
			fmt.Println(row)
		}
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dialoguebench: %v\n", err)
		return
	}
	fmt.Println(string(line))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func per(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// errLog keeps the first few op errors for the report.
type errLog struct {
	mu    sync.Mutex
	n     int
	first []error
}

func (l *errLog) note(err error) {
	l.mu.Lock()
	l.n++
	if len(l.first) < 5 {
		l.first = append(l.first, err)
	}
	l.mu.Unlock()
}

func (l *errLog) print() {
	for _, err := range l.first {
		fmt.Fprintf(os.Stderr, "dialoguebench: op failed: %v\n", err)
	}
	if l.n > len(l.first) {
		fmt.Fprintf(os.Stderr, "dialoguebench: ... %d op failures in all\n", l.n)
	}
}
