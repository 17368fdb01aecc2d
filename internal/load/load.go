package load

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultify"
	"repro/internal/metrics"
	"repro/internal/netx"
	"repro/internal/proc"
	"repro/internal/trace"
)

// NetAddrs points the workbench at loopback servers instead of the
// in-process virtual programs: workers dial these addresses and drive
// the identical dialogue mix over real sockets. Flaky workers dial Echo
// with a client-side faultify cut, so the fault surface is unchanged.
type NetAddrs struct {
	Echo   string
	Slow   string
	Bursty string
}

// ServeLoopback starts the three talker programs behind loopback TCP
// servers sized for an in-process network-mode run. The returned stop
// drains them (netx.Server.Shutdown semantics) and reports whether every
// server closed clean.
func ServeLoopback(slowGap time.Duration, burstLines int) (*NetAddrs, func(grace time.Duration) bool, error) {
	if slowGap <= 0 {
		slowGap = 100 * time.Microsecond
	}
	if burstLines <= 0 {
		burstLines = 8
	}
	progs := []struct {
		name string
		prog proc.Program
	}{
		{"echo", EchoServer()},
		{"slow", SlowTalker(slowGap)},
		{"bursty", BurstyLogger(burstLines)},
	}
	var servers []*netx.Server
	addrs := make([]string, len(progs))
	for i, p := range progs {
		srv, err := netx.NewServer("127.0.0.1:0", p.prog)
		if err != nil {
			for _, s := range servers {
				s.Shutdown(0)
			}
			return nil, nil, fmt.Errorf("load: serve %s: %w", p.name, err)
		}
		servers = append(servers, srv)
		addrs[i] = srv.Addr()
	}
	stop := func(grace time.Duration) bool {
		clean := true
		for _, s := range servers {
			if !s.Shutdown(grace) {
				clean = false
			}
		}
		return clean
	}
	return &NetAddrs{Echo: addrs[0], Slow: addrs[1], Bursty: addrs[2]}, stop, nil
}

// ServeMuxLoopback stands up one in-process session gateway serving the
// three talker programs by name (echo, slow, bursty) for a gateway-mode
// workbench run — the hermetic stand-in for an expectd -mux process.
// Shut it down with (*netx.MuxServer).Shutdown.
func ServeMuxLoopback(slowGap time.Duration, burstLines int, opt netx.MuxServerOptions) (*netx.MuxServer, error) {
	if slowGap <= 0 {
		slowGap = 100 * time.Microsecond
	}
	if burstLines <= 0 {
		burstLines = 8
	}
	return netx.NewMuxServer("127.0.0.1:0", map[string]proc.Program{
		"echo":   EchoServer(),
		"slow":   SlowTalker(slowGap),
		"bursty": BurstyLogger(burstLines),
	}, opt)
}

// Mix weighs the dialogue kinds the seeded driver deals out. The zero
// value means the default mix (mostly matches, a sprinkling of the
// other three).
type Mix struct {
	Match    int // send a line, expect its marker
	Timeout  int // expect a pattern that never comes, short deadline
	EOF      int // tell the child to quit, expect EOF, respawn
	Overflow int // blob past match_max, expect the tail marker
}

func (m Mix) total() int { return m.Match + m.Timeout + m.EOF + m.Overflow }

// Config describes one workbench run. The zero value of most fields
// picks a sensible default; Sessions is required.
type Config struct {
	// Sessions is K: concurrent sessions, each driven by one dialogue
	// worker. Programs are dealt round-robin: echo server, slow talker,
	// bursty logger, flaky child (echo behind a faultify cut).
	Sessions int
	// Dialogues is the per-session dialogue count. Ignored when Duration
	// is set; defaults to 10.
	Dialogues int
	// Duration switches to soak mode: workers loop until the deadline
	// instead of counting dialogues.
	Duration time.Duration
	// Shards > 0 runs sessions under a sharded scheduler with that many
	// event loops; 0 keeps the per-session pump goroutine baseline.
	Shards int
	// Matcher selects rescan or incremental matching for every session.
	Matcher core.MatcherMode
	// Seed makes the dialogue mix reproducible. Same seed, same schedule
	// of kinds per worker, whatever the shard count.
	Seed uint64
	// Mix weighs the dialogue kinds; zero value = default mix.
	Mix Mix
	// Probe is the deadline for timeout dialogues (default 2ms) — short,
	// because every one of them rides it out in full.
	Probe time.Duration
	// MatchMax bounds the match buffer (0 = engine default). Overflow
	// dialogues blob past twice this.
	MatchMax int
	// CutAfterBytes is the flaky child's faultify budget: its transport
	// delivers this many bytes per incarnation, then EOFs (default 1024).
	CutAfterBytes int64
	// Net, when non-nil, switches the workbench to network mode: workers
	// dial these loopback servers (see ServeLoopback) instead of spawning
	// virtual programs in-process. The dialogue mix, seeds, and flaky-cut
	// schedule are identical; only the transport changes.
	Net *NetAddrs
	// MuxAddrs, when non-empty, switches the workbench to gateway mode:
	// workers open framed streams on these expectd -mux addresses through
	// one run-owned connection pool (core.SpawnMux) instead of dialing a
	// socket per session. Addresses are dealt round-robin by worker id, so
	// an E23 run spreads its sessions across every gateway process. The
	// dialogue mix, seeds, and flaky-cut schedule are identical to the
	// other transports. Takes precedence over Net.
	MuxAddrs []string
	// MuxConns bounds pooled connections per gateway address (0 = the
	// netx default of 8); the E23 acceptance bound is ≤64 per process.
	MuxConns int
	// NoWrap drops the flaky worker's faultify transport wrapper, so
	// every session stays on the raw event-capable transport. E19 uses
	// it to isolate the ingest architecture: a wrapped stream hides the
	// TryRead/TryReadOwned capability, so its session keeps a pump
	// goroutine beside the shards, which would smear the
	// O(shards)-vs-O(conns) goroutine comparison with a constant it isn't
	// measuring.
	NoWrap bool
	// Prof, when non-nil, receives the engine's phase timings and the
	// wakeup-to-match histogram; nil allocates a private one.
	Prof *metrics.Profiler
	// Rec, when non-nil, supplies per-shard flight recorders (only
	// meaningful with Shards > 0).
	Rec func(shard int) *trace.Recorder
	// Registry, when non-nil, gets the run's telemetry registered into it
	// before the dialogue phase starts: driver-side dialogue counters and
	// latency, ingest accounting, profiler families, and the scheduler's
	// per-shard gauges. E21 serves it from an admin listener and scrapes
	// it at 1 Hz while the soak runs.
	Registry *metrics.Registry
	// OnScheduler, when non-nil, observes the run's scheduler right after
	// creation (called with nil for the pump baseline). The telemetry
	// tests use it to point /debug/sessions at a live run.
	OnScheduler func(*core.Scheduler)
}

func (c Config) withDefaults() Config {
	if c.Dialogues <= 0 && c.Duration <= 0 {
		c.Dialogues = 10
	}
	if c.Mix.total() <= 0 {
		c.Mix = Mix{Match: 12, Timeout: 2, EOF: 1, Overflow: 1}
	}
	if c.Probe <= 0 {
		c.Probe = 2 * time.Millisecond
	}
	if c.CutAfterBytes <= 0 {
		c.CutAfterBytes = 1024
	}
	if c.Prof == nil {
		c.Prof = metrics.NewProfiler()
	}
	return c
}

// Result is the workbench report. Every dialogue started lands in
// exactly one of Matches, Timeouts, or EOFs (the conservation law the
// property test pins); Overflows counts dialogues that additionally
// forced the match buffer to forget, and Errors counts dialogues that
// failed outright (always zero on a healthy engine).
type Result struct {
	Sessions  int
	Shards    int
	Dialogues int64
	Matches   int64
	Timeouts  int64
	EOFs      int64
	Overflows int64
	Errors    int64

	Elapsed         time.Duration
	DialoguesPerSec float64

	// QueueDepthPeak is the high-water mark of each shard's ingest queue
	// (nil for the pump baseline). Dropped counts events the scheduler
	// had to discard — zero on any clean run.
	QueueDepthPeak []int
	Dropped        uint64

	// Ingest accounting (network and gateway modes; zero otherwise):
	// what the socket→match-buffer data path did to every payload byte,
	// and the per-dialogue quotients E19 bounds.
	BytesCopied       int64
	BytesHandedOff    int64
	IngestAllocs      int64
	SegmentLeases     int64
	SegmentReuses     int64
	BytesCopiedPerDlg float64
	IngestAllocsPer1k float64 // ingest allocations per 1000 dialogues

	// SpawnGoroutines is how many goroutines spawning the K sessions
	// added, counted just before the first spawn and just after the last,
	// before any worker starts its dialogues: a pump per session without
	// a scheduler, a reader per socket without a poller, one poller per
	// shard with one — the O(conns) vs O(shards) ingest evidence E19
	// bounds.
	SpawnGoroutines int

	// Gateway-mode reporting (zero otherwise): pooled TCP connections
	// live at the end of the dialogue phase — the "K sessions over how
	// many sockets" number E23's ≤64-per-process bound reads — and
	// streams opened over the whole run (respawns included).
	MuxConns         int
	MuxStreamsOpened uint64

	// Wakeup is the engine's wakeup-to-match latency distribution;
	// Dialogue is end-to-end per-dialogue latency as the driver saw it.
	Wakeup   metrics.HistSummary
	Dialogue metrics.HistSummary
}

// counters is the workers' shared scoreboard.
type counters struct {
	dialogues, matches, timeouts, eofs, overflows, errors atomic.Int64
}

// worker drives one session through its dialogue schedule, respawning
// after every EOF (deliberate or flaky).
type worker struct {
	id   int
	cfg  *Config
	sc   *core.Scheduler
	rng  *rand.Rand
	s    *core.Session
	gen  int // respawn generation, keeps flaky seeds distinct
	tall *counters
	hist *metrics.Histogram

	// Network-mode ingest instrumentation, shared across the run: every
	// worker's sessions report into one scoreboard and lease from one
	// segment pool.
	ingest *metrics.IngestStats
	pool   *netx.SegmentPool
	// mux is the run-owned gateway connection pool (gateway mode only).
	mux *netx.MuxPool
}

// respawn replaces w.s with a fresh incarnation of the worker's program.
func (w *worker) respawn() error {
	if w.s != nil {
		w.s.Close()
		w.s.WaitPumpDrained()
	}
	w.gen++
	cfg := &core.Config{
		Matcher:  w.cfg.Matcher,
		MatchMax: w.cfg.MatchMax,
		Prof:     w.cfg.Prof,
		Sched:    w.sc,
		SID:      int32(w.id),
		Ingest:   w.ingest,
	}
	cfg.NetOptions.Pool = w.pool
	var program proc.Program
	name, addr := "", ""
	switch w.id % 4 {
	case 0:
		name, program = "echo", EchoServer()
	case 1:
		name, program = "slow", SlowTalker(100*time.Microsecond)
	case 2:
		name, program = "bursty", BurstyLogger(8)
	case 3:
		name, program = "flaky", EchoServer()
		if !w.cfg.NoWrap {
			cut := faultify.Schedule{
				Seed:          w.cfg.Seed ^ uint64(w.id)<<20 ^ uint64(w.gen),
				CutAfterBytes: w.cfg.CutAfterBytes,
			}
			cfg.SpawnOptions.WrapTransport = faultify.Wrapper(cut, nil)
		}
	}
	if net := w.cfg.Net; net != nil && w.mux == nil {
		switch w.id % 4 {
		case 0:
			addr = net.Echo
		case 1:
			addr = net.Slow
		case 2:
			addr = net.Bursty
		case 3:
			addr = net.Echo // flaky = echo behind the client-side cut above
		}
	}
	label := fmt.Sprintf("%s-%d.%d", name, w.id, w.gen)
	var s *core.Session
	var err error
	if w.mux != nil {
		// Gateway mode: the stream is opened by program name on a pooled
		// framed connection (flaky = echo behind the client-side cut, same
		// as network mode).
		prog := name
		if prog == "flaky" {
			prog = "echo"
		}
		gw := w.cfg.MuxAddrs[w.id%len(w.cfg.MuxAddrs)]
		cfg.Mux = w.mux
		s, err = core.SpawnMux(cfg, label, gw, prog)
	} else if addr != "" {
		s, err = core.SpawnNetwork(cfg, label, addr)
	} else {
		s, err = core.SpawnProgram(cfg, label, program)
	}
	if err != nil {
		return err
	}
	w.s = s
	return nil
}

// dialogue runs one exchange and scores it. The cases always include
// timeout and EOF, so every outcome comes back as a result, not an
// error; errors mean the engine itself misbehaved.
func (w *worker) dialogue(n int64) {
	w.tall.dialogues.Add(1)
	kind := w.pickKind()
	start := time.Now()
	forgotBefore := w.s.Forgotten()

	var (
		deadline time.Duration
		pattern  string
	)
	switch kind {
	case "match":
		pattern = fmt.Sprintf("m%d", n)
		w.s.Send(pattern + "\n")
		deadline = 30 * time.Second
	case "timeout":
		pattern = "pattern-that-never-arrives"
		deadline = w.cfg.Probe
	case "eof":
		w.s.Send("quit\n")
		pattern = "pattern-that-never-arrives"
		deadline = 30 * time.Second
	case "overflow":
		max := w.cfg.MatchMax
		if max <= 0 {
			max = core.DefaultMatchMax
		}
		w.s.Send(fmt.Sprintf("blob %d\n", 2*max))
		pattern = "blob"
		deadline = 30 * time.Second
	}

	res, err := w.s.ExpectTimeout(deadline,
		core.Exact("echo:"+pattern+"\n"), core.TimeoutCase(), core.EOFCase())
	w.hist.Observe(time.Since(start))
	if err != nil {
		w.tall.errors.Add(1)
		w.respawn()
		return
	}
	switch {
	case res.Eof:
		w.tall.eofs.Add(1)
		w.respawn()
	case res.TimedOut:
		w.tall.timeouts.Add(1)
	default:
		w.tall.matches.Add(1)
	}
	if w.s.Forgotten() > forgotBefore {
		w.tall.overflows.Add(1)
	}
}

func (w *worker) pickKind() string {
	r := w.rng.Intn(w.cfg.Mix.total())
	if r -= w.cfg.Mix.Match; r < 0 {
		return "match"
	}
	if r -= w.cfg.Mix.Timeout; r < 0 {
		return "timeout"
	}
	if r -= w.cfg.Mix.EOF; r < 0 {
		return "eof"
	}
	return "overflow"
}

// Run executes one workbench configuration: spawn all K sessions (the
// barrier keeps spawn cost out of the dialogue clock), run the dialogue
// phase, tear everything down, and report.
func Run(cfg Config) (*Result, error) {
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("load: Sessions must be positive, got %d", cfg.Sessions)
	}
	cfg = cfg.withDefaults()

	var sc *core.Scheduler
	if cfg.Shards > 0 {
		sc = core.NewScheduler(core.SchedulerOptions{Shards: cfg.Shards, Rec: cfg.Rec})
	}
	tall := &counters{}
	dialHist := metrics.NewHistogram()

	// One ingest scoreboard and one segment pool for the whole run, so
	// reuse crosses sessions and the per-dialogue quotients aggregate.
	var ingest *metrics.IngestStats
	var pool *netx.SegmentPool
	if cfg.Net != nil || len(cfg.MuxAddrs) > 0 {
		ingest = &metrics.IngestStats{}
		pool = netx.NewSegmentPool(netx.Options{}.ReadChunk(), ingest)
	}

	// Gateway mode shares one connection pool across every worker: that
	// is the architecture under test — K sessions over a bounded set of
	// framed sockets, not K sockets.
	var muxPool *netx.MuxPool
	if len(cfg.MuxAddrs) > 0 {
		muxPool = netx.NewMuxPool(netx.MuxOptions{
			MaxConns: cfg.MuxConns,
			Stats:    ingest,
			Pool:     pool,
		})
		defer muxPool.Close()
	}

	if cfg.OnScheduler != nil {
		cfg.OnScheduler(sc)
	}
	if r := cfg.Registry; r != nil {
		gauge := func(name, help string, n *atomic.Int64) {
			r.Counter(name, help, func() float64 { return float64(n.Load()) })
		}
		gauge("load_dialogues_total", "Dialogues started by the workbench drivers.", &tall.dialogues)
		gauge("load_matches_total", "Dialogues resolved by a pattern match.", &tall.matches)
		gauge("load_timeouts_total", "Dialogues resolved by timeout.", &tall.timeouts)
		gauge("load_eofs_total", "Dialogues resolved by EOF.", &tall.eofs)
		gauge("load_errors_total", "Dialogues that failed outright (zero on a healthy engine).", &tall.errors)
		r.Histogram("load_dialogue_seconds", "End-to-end dialogue latency as the driver saw it.",
			func() []*metrics.Histogram { return []*metrics.Histogram{dialHist} })
		ingest.RegisterInto(r)
		cfg.Prof.RegisterInto(r)
		sc.RegisterMetrics(r)
	}

	workers := make([]*worker, cfg.Sessions)
	goroBefore := runtime.NumGoroutine()
	for i := range workers {
		workers[i] = &worker{
			id:     i,
			cfg:    &cfg,
			sc:     sc,
			rng:    rand.New(rand.NewSource(int64(cfg.Seed) + int64(i)*0x9e3779b9)),
			tall:   tall,
			hist:   dialHist,
			ingest: ingest,
			pool:   pool,
			mux:    muxPool,
		}
		if err := workers[i].respawn(); err != nil {
			return nil, fmt.Errorf("load: spawn session %d: %w", i, err)
		}
	}

	spawnGoroutines := runtime.NumGoroutine() - goroBefore

	start := time.Now()
	var end time.Time
	if cfg.Duration > 0 {
		end = start.Add(cfg.Duration)
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for n := int64(0); ; n++ {
				if end.IsZero() {
					if n >= int64(cfg.Dialogues) {
						return
					}
				} else if !time.Now().Before(end) {
					return
				}
				w.dialogue(n)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var muxStats netx.MuxPoolStats
	if muxPool != nil {
		// Snapshot while sessions are still open: Conns is the live
		// socket count carrying all K sessions.
		muxStats = muxPool.Stats()
	}

	for _, w := range workers {
		w.s.Close()
		w.s.WaitPumpDrained()
	}

	res := &Result{
		Sessions:  cfg.Sessions,
		Shards:    cfg.Shards,
		Dialogues: tall.dialogues.Load(),
		Matches:   tall.matches.Load(),
		Timeouts:  tall.timeouts.Load(),
		EOFs:      tall.eofs.Load(),
		Overflows: tall.overflows.Load(),
		Errors:    tall.errors.Load(),
		Elapsed:   elapsed,
		Wakeup:    cfg.Prof.Hist(metrics.HistWakeupToMatch).Summary("wakeup_to_match"),
		Dialogue:  dialHist.Summary("dialogue"),
	}
	if elapsed > 0 {
		res.DialoguesPerSec = float64(res.Dialogues) / elapsed.Seconds()
	}
	res.SpawnGoroutines = spawnGoroutines
	if muxPool != nil {
		res.MuxConns = muxStats.Conns
		res.MuxStreamsOpened = muxStats.Opened
	}
	if ingest != nil {
		res.BytesCopied = ingest.BytesCopied()
		res.BytesHandedOff = ingest.BytesHandedOff()
		res.IngestAllocs = ingest.IngestAllocs()
		res.SegmentLeases = ingest.SegmentLeases()
		res.SegmentReuses = ingest.SegmentReuses()
		if res.Dialogues > 0 {
			res.BytesCopiedPerDlg = float64(res.BytesCopied) / float64(res.Dialogues)
			res.IngestAllocsPer1k = 1000 * float64(res.IngestAllocs) / float64(res.Dialogues)
		}
	}
	if sc != nil {
		sc.Stop()
		res.QueueDepthPeak = sc.PeakQueueDepths()
		res.Dropped = sc.Dropped()
	}
	return res, nil
}
