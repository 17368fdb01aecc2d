// Package core implements the expect engine, the paper's contribution: a
// programmed-dialogue controller for interactive programs. A Session wraps
// a spawned process (pty-, pipe-, or virtually-backed) with the paper's
// match buffer; Expect waits for patterns in the accumulated output, Send
// types at the process, Interact couples the user to it, and Select waits
// across many sessions at once (§2.2's job control, Figure 5).
//
// The package is usable two ways: directly from Go through Session and the
// Spawn functions, or from scripts through Engine, which grafts the
// paper's twelve commands onto a Tcl interpreter (§3).
package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/netx"
	"repro/internal/proc"
	"repro/internal/trace"
	"repro/internal/vt"
)

// DefaultMatchMax is the buffer bound: "more than 2000 bytes of output can
// force earlier bytes to be 'forgotten'" (§3.1).
const DefaultMatchMax = 2000

// DefaultTimeout is the expect default: "The default timeout period is 10
// seconds" (§3.1).
const DefaultTimeout = 10 * time.Second

// MatcherMode selects the pattern-scan strategy for glob patterns.
type MatcherMode int

const (
	// MatcherRescan re-runs the full-buffer match on every read, as the
	// original implementation did ("if characters arrive slowly, the
	// pattern matcher scans the same data many times", §7.4).
	MatcherRescan MatcherMode = iota
	// MatcherIncremental carries NFA state across reads and never rescans
	// earlier data — the paper's open question, answered.
	MatcherIncremental
)

// Config carries session-creation options. The zero value gives the
// paper's defaults.
type Config struct {
	// MatchMax bounds the match buffer in bytes (default 2000).
	MatchMax int
	// Timeout is the default Expect timeout (default 10s). Negative means
	// wait forever; zero means the default.
	Timeout time.Duration
	// Matcher selects rescan (default, faithful) or incremental matching.
	Matcher MatcherMode
	// Prof receives phase timings for the §7.4 breakdown; nil disables.
	Prof *metrics.Profiler
	// Logger, when non-nil, receives every chunk of child output as it
	// arrives (the engine's log_user / log_file tap).
	Logger func([]byte)
	// ScreenRows/ScreenCols, when both nonzero, enable terminal
	// emulation: the session maintains a vt.Screen of that size from the
	// output stream, queryable with Screen/ExpectScreen (the paper's §8
	// "regions of character graphics" question).
	ScreenRows, ScreenCols int
	// Rec, when non-nil, is the flight recorder the session reports to:
	// reads, writes, pattern attempts, timers, forgetting. A nil recorder
	// (or a disabled one) costs one check per site and nothing else.
	Rec *trace.Recorder
	// SID tags the session's flight-recorder events; the engine sets it to
	// the spawn id so recordings read in script terms (-1 = no id).
	SID int32
	// Sched, when non-nil, hands a session whose transport is
	// event-capable (virtual duplexes, sockets, mux streams) to a sharded
	// scheduler: one of its event loops drains it instead of a
	// per-session pump goroutine (see shard.go). Sessions that can only
	// be read by blocking (pty, pipe, fault-wrapped transports) and
	// raw-stream sessions (no process) keep their pump.
	Sched *Scheduler
	// Spawn options passed through to the transport layer.
	SpawnOptions proc.Options
	// NetOptions configures the socket transport for SpawnNetwork sessions
	// (buffer caps, segment pool, poller opt-out).
	// ReadBuf defaults from SpawnOptions.BufferCap when unset.
	NetOptions netx.Options
	// Ingest, when non-nil, receives copied/handed-off byte accounting
	// from the whole ingest path — socket inbox and match-buffer append —
	// for the zero-copy experiments. Defaults NetOptions.Stats when that
	// is unset.
	Ingest *metrics.IngestStats
	// Mux, when non-nil, is the pooled gateway client SpawnMux opens
	// streams on: many sessions share a few framed TCP connections
	// instead of dialing one socket each. The caller owns the pool's
	// lifetime; closing a session closes only its stream.
	Mux *netx.MuxPool
}

func (c *Config) matchMax() int {
	if c == nil || c.MatchMax <= 0 {
		return DefaultMatchMax
	}
	return c.MatchMax
}

func (c *Config) timeout() time.Duration {
	if c == nil || c.Timeout == 0 {
		return DefaultTimeout
	}
	return c.Timeout
}

// Session is one controlled dialogue: a spawned process plus the match
// buffer its output accumulates in.
type Session struct {
	name   string
	p      *proc.Process // nil for raw-stream sessions (e.g. the user)
	rw     io.ReadWriteCloser
	prof   *metrics.Profiler
	rec    *trace.Recorder
	sid    int32
	ingest *metrics.IngestStats

	mu        sync.Mutex
	cond      *sync.Cond
	mb        matchBuffer
	totalSeen int64
	forgotten int64
	eof       bool
	readErr   error
	closed    bool
	matcher   MatcherMode
	timeout   time.Duration
	logger    func([]byte)
	watchers  map[chan struct{}]struct{}
	screen    *vt.Screen
	// lastRead timestamps the most recent chunk arrival (guarded by mu);
	// a parked Expect prices its wakeup from it (HistReadToWakeup).
	lastRead time.Time
	// parked holds the unresolved Expect calls in arrival order; the
	// ingest side steps them, and each op's timer unparks it at its
	// deadline (expect.go). abandoned
	// is set when the shard that drained the session exited first, so
	// nothing will ever resolve a new op.
	parked    []*expectOp
	abandoned bool

	pumpDone chan struct{}
	pumpOnce sync.Once

	// Sharded-scheduler state (nil/zero for pump-driven sessions): the
	// owning shard, the hash key it was assigned with, and the ingest
	// flags its loop coordinates on. adopt writes shard once, before the
	// session is returned, and it never changes (shard.go invariant 1),
	// so it is read without the lock.
	shard    *shard
	shardKey uint64
	inDirty  atomic.Bool
	shardEOF atomic.Bool
	// ownedMode marks a shard-owned session whose transport hands chunks
	// over by ownership transfer (TryReadOwned) instead of copying drains.
	ownedMode bool

	// Dialogue counters, atomics so the expect paths bump them without
	// extra locking and the telemetry snapshot reads them from any
	// goroutine: expects issued, and how each resolved (match, timeout,
	// EOF). The load workbench's conservation law — matches + timeouts +
	// EOFs == dialogues — is checkable per session from these.
	nExpects, nMatches, nTimeouts, nEofs atomic.Int64
}

// ErrTimeout is returned by Expect when no pattern matched in time and no
// explicit timeout case was supplied.
var ErrTimeout = errors.New("expect: timeout")

// ErrEOF is returned by Expect when the process closed its output and no
// explicit eof case was supplied.
var ErrEOF = errors.New("expect: end of file from process")

// ErrClosed is returned for operations on a closed session.
var ErrClosed = errors.New("expect: session closed")

// SpawnCommand starts a program under a pseudo-terminal and returns its
// session — the script-level spawn command (§3.2).
func SpawnCommand(cfg *Config, name string, args ...string) (*Session, error) {
	opt := spawnOptions(cfg)
	p, err := proc.SpawnPty(name, args, opt)
	if err != nil {
		return nil, err
	}
	return newSession(cfg, name, p, p), nil
}

// SpawnPipeCommand starts a program over plain pipes (no terminal
// semantics) — the baseline transport that §2.1 explains is insufficient
// for programs like rogue, kept for comparison experiments.
func SpawnPipeCommand(cfg *Config, name string, args ...string) (*Session, error) {
	opt := spawnOptions(cfg)
	p, err := proc.SpawnPipe(name, args, opt)
	if err != nil {
		return nil, err
	}
	return newSession(cfg, name, p, p), nil
}

// SpawnProgram runs an in-process virtual program as a session. Tests,
// benchmarks, and the simulated interactive programs use this transport.
func SpawnProgram(cfg *Config, name string, program proc.Program) (*Session, error) {
	opt := spawnOptions(cfg)
	p, err := proc.SpawnVirtual(name, program, opt)
	if err != nil {
		return nil, err
	}
	return newSession(cfg, name, p, p), nil
}

// SpawnNetwork dials a TCP address and adopts the connection as a
// session: the remote endpoint (an expectd program, a real network
// service) plays the child's role. The socket transport is event-capable,
// so under a sharded scheduler a network session runs goroutine-free on
// the shard loop, exactly like a virtual one; the usual WrapTransport
// hook composes on the client side, so fault schedules replay over
// sockets too.
func SpawnNetwork(cfg *Config, name, addr string) (*Session, error) {
	opt := spawnOptions(cfg)
	nopt := netx.Options{}
	if cfg != nil {
		nopt = cfg.NetOptions
		if nopt.Stats == nil {
			nopt.Stats = cfg.Ingest
		}
	}
	if nopt.ReadBuf == 0 && opt.BufferCap > 0 {
		nopt.ReadBuf = opt.BufferCap
	}
	stopFork := opt.Prof.Start(metrics.PhaseFork)
	var nc *netx.Conn
	var err error
	if cfg != nil && cfg.Sched != nil {
		// Defer ingest: the adopting shard chooses between its readiness
		// loop (linux, zero goroutines per connection) and the fallback
		// reader goroutine. If adoption falls through to a pump, the first
		// blocking Read starts the fallback reader on its own.
		nc, err = netx.DialDeferred(addr, nopt)
	} else {
		nc, err = netx.Dial(addr, nopt)
	}
	stopFork()
	if err != nil {
		return nil, err
	}
	p := proc.SpawnStream(name, proc.KindNetwork, nc, nc.WaitStatus, opt)
	return newSession(cfg, name, p, p), nil
}

// SpawnMux opens program as one multiplexed stream on a session gateway
// (an expectd -mux listener at addr) through cfg.Mux's connection pool
// and adopts the stream as a session. The stream satisfies the full
// event-capable, ownership-transferring transport contract, so under a
// sharded scheduler a muxed session runs goroutine-free on the shard
// loop — the gateway's point: 100k dialogues over a few dozen sockets.
// WrapTransport composes on the stream as usual, so fault schedules
// replay over the mux exactly like every other transport.
func SpawnMux(cfg *Config, name, addr, program string) (*Session, error) {
	if cfg == nil || cfg.Mux == nil {
		return nil, errors.New("expect: SpawnMux requires Config.Mux pool")
	}
	opt := spawnOptions(cfg)
	stopFork := opt.Prof.Start(metrics.PhaseFork)
	st, err := cfg.Mux.Open(addr, program)
	stopFork()
	if err != nil {
		return nil, err
	}
	p := proc.SpawnStream(name, proc.KindMux, st, st.WaitStatus, opt)
	return newSession(cfg, name, p, p), nil
}

// NewSession wraps an arbitrary byte stream (for example the user's
// stdin/stdout pair) as a session, fulfilling §2.2's "the user can also be
// manipulated as if they were a process".
func NewSession(cfg *Config, name string, rw io.ReadWriteCloser) *Session {
	return newSession(cfg, name, nil, rw)
}

// sinkRW is the manual session's transport: sends vanish, there is no
// child to read from.
type sinkRW struct{}

func (sinkRW) Read(p []byte) (int, error)  { return 0, io.EOF }
func (sinkRW) Write(p []byte) (int, error) { return len(p), nil }
func (sinkRW) Close() error                { return nil }

// NewManualSession builds a session with no child, no pump goroutine, and
// no scheduler: bytes enter only through Feed/FeedEOF and match attempts
// run only through ManualExpect.Step. This is the replay engine's virtual
// transport — fully synchronous, so a journaled run's chunk boundaries and
// wakeup order reproduce exactly — and the restore path's blank slate.
func NewManualSession(cfg *Config, name string) *Session {
	var scrubbed Config
	if cfg != nil {
		scrubbed = *cfg
	}
	scrubbed.Sched = nil // manual sessions are never shard-adopted
	s := newManualSession(&scrubbed, name)
	return s
}

func newManualSession(cfg *Config, name string) *Session {
	s := &Session{
		name:     name,
		rw:       sinkRW{},
		mb:       matchBuffer{max: cfg.matchMax()},
		timeout:  cfg.timeout(),
		watchers: make(map[chan struct{}]struct{}),
		pumpDone: make(chan struct{}),
	}
	s.prof = cfg.Prof
	s.logger = cfg.Logger
	s.matcher = cfg.Matcher
	s.rec = cfg.Rec
	s.sid = cfg.SID
	if cfg.ScreenRows > 0 && cfg.ScreenCols > 0 {
		s.screen = vt.NewScreen(cfg.ScreenRows, cfg.ScreenCols)
	}
	s.cond = sync.NewCond(&s.mu)
	s.closePumpDone() // nothing will ever pump
	return s
}

// Feed applies one chunk of child output exactly as the pump would:
// match_max trimming, taps, recording, then a step of the parked Expect
// calls. Replay and tests drive sessions with it; it must not race a live
// pump on the same session.
func (s *Session) Feed(chunk []byte) {
	s.applyChunk(chunk)
	s.stepParked()
}

// FeedEOF applies end-of-stream; a nil or io.EOF err is a clean hangup.
func (s *Session) FeedEOF(err error) { s.applyEOF(err) }

func spawnOptions(cfg *Config) proc.Options {
	if cfg == nil {
		return proc.Options{}
	}
	opt := cfg.SpawnOptions
	if opt.Prof == nil {
		opt.Prof = cfg.Prof
	}
	// A config-level recorder also covers the spawn itself, so direct
	// Spawn* callers get the spawn event without wiring proc.Options.
	if opt.Rec == nil {
		opt.Rec = cfg.Rec
		opt.TraceSID = cfg.SID
	}
	return opt
}

func newSession(cfg *Config, name string, p *proc.Process, rw io.ReadWriteCloser) *Session {
	s := &Session{
		name:     name,
		p:        p,
		rw:       rw,
		mb:       matchBuffer{max: cfg.matchMax()},
		timeout:  cfg.timeout(),
		watchers: make(map[chan struct{}]struct{}),
		pumpDone: make(chan struct{}),
	}
	if cfg != nil {
		s.prof = cfg.Prof
		s.logger = cfg.Logger
		s.matcher = cfg.Matcher
		s.rec = cfg.Rec
		s.sid = cfg.SID
		s.ingest = cfg.Ingest
		if s.ingest == nil {
			s.ingest = cfg.NetOptions.Stats
		}
		if cfg.ScreenRows > 0 && cfg.ScreenCols > 0 {
			s.screen = vt.NewScreen(cfg.ScreenRows, cfg.ScreenCols)
		}
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg != nil && cfg.Sched != nil && p != nil {
		if cfg.Sched.adopt(s) != nil {
			return s
		}
	}
	go s.pump()
	return s
}

// ShardIndex returns the shard that owns this session, or -1 for
// pump-driven sessions.
func (s *Session) ShardIndex() int {
	if s.shard == nil {
		return -1
	}
	return s.shard.idx
}

// isTransient reports whether a read/write error is a retryable transient
// condition rather than a dead stream: anything advertising Temporary()
// (net-style errors, injected faults), or the raw EAGAIN/EINTR a
// non-blocking or signal-interrupted pty read surfaces. The original
// expect's select loop simply went around again on these; treating them as
// EOF would tear down a perfectly live dialogue.
func isTransient(err error) bool {
	var temp interface{ Temporary() bool }
	if errors.As(err, &temp) && temp.Temporary() {
		return true
	}
	return errors.Is(err, syscall.EAGAIN) || errors.Is(err, syscall.EINTR)
}

// pump moves child output into the match buffer, enforcing match_max,
// and steps the session's parked Expect calls after each read. One pump
// goroutine per session is the classic concurrency model — the dialogue
// logic itself stays single-threaded, like the original select-loop
// implementation (§7.2). Sessions a scheduler adopted skip the pump
// entirely: a shard event loop performs the same applyChunk/applyEOF
// sequence (shard.go).
func (s *Session) pump() {
	defer s.closePumpDone()
	chunk := make([]byte, 4096)
	for {
		stop := s.prof.Start(metrics.PhaseIO)
		n, err := s.rw.Read(chunk)
		stop()
		if n > 0 {
			s.applyChunk(chunk[:n])
			s.stepParked()
		}
		if err != nil {
			if isTransient(err) {
				// A transient fault, not a hangup: retry the read.
				continue
			}
			s.applyEOF(err)
			return
		}
	}
}

// applyChunk is the single ingest path shared by the pump and the shard
// loops: tap loggers and the screen, append under the match_max bound,
// record, and wake watchers. The caller steps the parked Expect calls
// afterwards: the pump after each read, a shard once per session per
// sweep.
func (s *Session) applyChunk(chunk []byte) {
	n := len(chunk)
	if s.logger != nil {
		s.logger(chunk)
	}
	if s.screen != nil {
		s.screen.Write(chunk)
	}
	s.mu.Lock()
	s.totalSeen += int64(n)
	// Forgetting per §3.1 happens inside appendData in O(1).
	prevCap := cap(s.mb.data)
	forgot := int64(s.mb.appendData(chunk))
	if s.ingest != nil {
		s.ingest.AddCopied(n)
		if cap(s.mb.data) != prevCap {
			s.ingest.AddAlloc()
		}
	}
	s.forgotten += forgot
	if s.prof != nil || s.rec.On() {
		s.lastRead = time.Now()
	}
	if s.rec.On() {
		s.rec.RecordBytes(trace.KindRead, s.sid, int64(n), s.totalSeen, false, chunk, nil)
		if forgot > 0 {
			s.rec.Record(trace.KindForget, s.sid, forgot, s.forgotten, false, "", "")
		}
	}
	s.notifyLocked()
	s.mu.Unlock()
}

// applyOwned is applyChunk's ownership-transfer twin: the chunk arrives
// as a leased buffer (a pooled netx segment) and, in the steady state of
// an empty match window, becomes the gap buffer's backing without a
// copy — the lease travels kernel → segment → window and is released
// when the window forgets it. Taps (logger, screen, recorder) read the
// payload before any release; the recorder copies what it keeps. When
// the window is mid-match and cannot adopt, the bytes are copied in and
// the lease returned here.
func (s *Session) applyOwned(o proc.Owned) {
	chunk := o.Bytes()
	n := len(chunk)
	if s.logger != nil {
		s.logger(chunk)
	}
	if s.screen != nil {
		s.screen.Write(chunk)
	}
	s.mu.Lock()
	s.totalSeen += int64(n)
	prevCap := cap(s.mb.data)
	forgotN, adopted := s.mb.appendOwned(chunk, o)
	forgot := int64(forgotN)
	if s.ingest != nil {
		if adopted {
			s.ingest.AddHandedOff(n)
		} else {
			s.ingest.AddCopied(n)
			if cap(s.mb.data) != prevCap {
				s.ingest.AddAlloc()
			}
		}
	}
	s.forgotten += forgot
	if s.prof != nil || s.rec.On() {
		s.lastRead = time.Now()
	}
	if s.rec.On() {
		s.rec.RecordBytes(trace.KindRead, s.sid, int64(n), s.totalSeen, false, chunk, nil)
		if forgot > 0 {
			s.rec.Record(trace.KindForget, s.sid, forgot, s.forgotten, false, "", "")
		}
	}
	s.notifyLocked()
	s.mu.Unlock()
	if !adopted {
		o.Release()
	}
}

// applyEOF marks the stream finished, wakes watchers and resolves every
// parked Expect call; a nil or io.EOF err is a clean hangup, anything
// else is preserved for the ExpectError report.
func (s *Session) applyEOF(err error) {
	s.mu.Lock()
	s.eof = true
	if err != nil && err != io.EOF {
		s.readErr = err
	}
	s.notifyLocked()
	s.stepParkedLocked()
	s.mu.Unlock()
}

// closePumpDone releases WaitPumpDrained exactly once, whether the pump
// or the owning shard observed EOF.
func (s *Session) closePumpDone() {
	s.pumpOnce.Do(func() { close(s.pumpDone) })
}

func (s *Session) notifyLocked() {
	s.cond.Broadcast()
	for ch := range s.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// addWatcher registers a channel poked whenever new data or EOF arrives.
func (s *Session) addWatcher(ch chan struct{}) {
	s.mu.Lock()
	s.watchers[ch] = struct{}{}
	s.mu.Unlock()
}

func (s *Session) removeWatcher(ch chan struct{}) {
	s.mu.Lock()
	delete(s.watchers, ch)
	s.mu.Unlock()
}

// Name returns the spawned program name.
func (s *Session) Name() string { return s.name }

// Pid returns the process id, or 0 for raw-stream sessions.
func (s *Session) Pid() int {
	if s.p == nil {
		return 0
	}
	return s.p.Pid()
}

// Kind returns the transport kind, or "stream" for raw sessions.
func (s *Session) Kind() string {
	if s.p == nil {
		return "stream"
	}
	return string(s.p.Kind())
}

// SetMatchMax adjusts the buffer bound ("this may be changed by setting
// the variable match_max", §3.1). Shrinking below the current buffer
// length forgets the earliest bytes, exactly as if they had been pushed
// out by arriving output: Forgotten() advances by the same amount, so
// incremental matchers reconciling against it stay consistent.
func (s *Session) SetMatchMax(n int) {
	if n <= 0 {
		n = DefaultMatchMax
	}
	s.mu.Lock()
	if s.rec.On() {
		// Journaled before the trim so replay applies the same bound at
		// the same stream position.
		s.rec.Record(trace.KindConfig, s.sid, int64(n), 0, false, "match_max", "")
	}
	forgot := int64(s.mb.setMax(n))
	s.forgotten += forgot
	if forgot > 0 && s.rec.On() {
		s.rec.Record(trace.KindForget, s.sid, forgot, s.forgotten, false, "", "")
	}
	s.mu.Unlock()
}

// MatchMax returns the current buffer bound.
func (s *Session) MatchMax() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mb.max
}

// SetTimeout changes the session's default Expect timeout; d < 0 waits
// forever.
func (s *Session) SetTimeout(d time.Duration) {
	s.mu.Lock()
	s.timeout = d
	s.mu.Unlock()
}

// Timeout returns the session's default Expect timeout.
func (s *Session) Timeout() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.timeout
}

// Send writes s to the process — keystrokes, as far as the child can tell.
func (s *Session) Send(text string) error {
	return s.SendBytes([]byte(text))
}

// SendBytes writes raw bytes to the process.
func (s *Session) SendBytes(b []byte) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if s.rec.On() {
		s.rec.RecordBytes(trace.KindWrite, s.sid, int64(len(b)), 0, false, b, nil)
	}
	stop := s.prof.Start(metrics.PhaseIO)
	defer stop()
	// Retry short writes and transient failures: the child must see the
	// full byte sequence even when the transport delivers it in pieces.
	for len(b) > 0 {
		n, err := s.rw.Write(b)
		b = b[n:]
		if err != nil && !isTransient(err) {
			return fmt.Errorf("expect: send to %s: %w", s.name, err)
		}
	}
	return nil
}

// Buffer returns a copy of the current unmatched output.
func (s *Session) Buffer() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.mb.bytes())
}

// ClearBuffer empties the match buffer and returns what was discarded.
func (s *Session) ClearBuffer() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := string(s.mb.bytes())
	s.mb.reset()
	return out
}

// TotalSeen returns the total bytes of output ever received.
func (s *Session) TotalSeen() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalSeen
}

// Forgotten returns the bytes dropped from the front of the buffer by the
// match_max bound.
func (s *Session) Forgotten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.forgotten
}

// Eof reports whether the process has closed its output.
func (s *Session) Eof() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eof
}

// HasData reports whether unread output is buffered (used by select).
func (s *Session) HasData() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mb.length() > 0 || s.eof
}

// CloseWrite half-closes the channel toward the process, delivering EOF on
// its stdin while its remaining output stays readable.
func (s *Session) CloseWrite() error {
	if s.p != nil {
		return s.p.CloseWrite()
	}
	return nil
}

// Close closes the connection to the process (§3.2 close). The process
// sees EOF/hangup; its pump drains and the session records EOF.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.rw.Close()
	if s.p != nil {
		s.p.Close()
	}
	return err
}

// Kill forcibly terminates the child (backstop for EOF-ignoring programs).
func (s *Session) Kill() error {
	if s.p != nil {
		return s.p.Kill()
	}
	return nil
}

// Wait blocks until the process exits and returns its status. Raw-stream
// sessions return immediately.
func (s *Session) Wait() (int, error) {
	if s.p == nil {
		return 0, nil
	}
	return s.p.Wait()
}

// WaitPumpDrained blocks until the reader pump has observed EOF; useful in
// tests that need every byte accounted for.
func (s *Session) WaitPumpDrained() {
	<-s.pumpDone
}
