package core

import (
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/netx"
	"repro/internal/proc"
	"repro/internal/tcl"
	"repro/internal/trace"
)

// Engine is the script-level expect: a Tcl interpreter extended with the
// paper's commands (spawn, send, expect, interact, close, select, …), a
// table of live sessions addressed by spawn_id, and the user terminal as
// an I/O source/sink.
type Engine struct {
	// Interp is the underlying Tcl interpreter. Callers may register
	// additional commands on it before Run.
	Interp *tcl.Interp

	mu       sync.Mutex
	sessions map[int]*Session
	nextID   int

	userIn  io.Reader
	userOut io.Writer
	userSes *Session

	logUser  bool
	logFile  io.WriteCloser
	logMu    sync.Mutex
	prof     *metrics.Profiler
	rec      *trace.Recorder
	matcher  MatcherMode
	virtuals map[string]proc.Program
	// remotes maps program names to network addresses (RegisterRemote);
	// spawning a mapped name dials instead of forking.
	remotes map[string]string
	// muxRemotes maps program names to session-gateway addresses
	// (RegisterRemoteMux); spawning a mapped name opens one multiplexed
	// stream on the engine-owned pool instead of dialing a fresh socket.
	muxRemotes map[string]string
	// muxPool is created lazily on the first mux spawn and closed by
	// Shutdown. Guarded by muxMu: spawns can race from event handlers.
	muxMu   sync.Mutex
	muxPool *netx.MuxPool
	// transport selects how spawn starts real programs.
	transport string
	// childTap/spawnWrap are the observability and fault-injection hooks;
	// see EngineOptions.
	childTap  func(seq int, name string) io.Writer
	spawnWrap func(io.ReadWriteCloser) io.ReadWriteCloser
	spawnSeq  int
	// sched owns spawned sessions when EngineOptions.Shards > 0.
	sched *Scheduler

	exitCode   int
	exitCalled bool
}

// EngineOptions configures a script engine.
type EngineOptions struct {
	// UserIn/UserOut are the user's terminal (default os.Stdin/os.Stdout).
	UserIn  io.Reader
	UserOut io.Writer
	// Prof receives phase timings.
	Prof *metrics.Profiler
	// Rec overrides the engine's flight recorder. By default every engine
	// arms a fresh ring-recording trace.Recorder so incident reports
	// (timeouts, EOF surprises, conformance divergences) always have a
	// flight recording to attach; pass an explicitly disabled recorder to
	// opt out (trace.New(n) without arming).
	Rec *trace.Recorder
	// Matcher selects the glob scan strategy for all sessions.
	Matcher MatcherMode
	// Transport is "pty" (default) or "pipe" for real program spawns, or
	// "network" to treat every spawn target as a host:port to dial over
	// the socket transport (internal/netx).
	Transport string
	// LogUser sets the initial log_user state (default true: the user sees
	// the dialogue as it happens).
	LogUser *bool
	// ChildTap, when non-nil, is called once per spawn with the session's
	// spawn ordinal (0, 1, …) and program name; the returned writer (if
	// non-nil) receives that session's raw output stream, independent of
	// log_user. The conformance harness uses per-session taps to compare
	// child transcripts across engine variants; writers must be safe for
	// use from the session's pump goroutine.
	ChildTap func(seq int, name string) io.Writer
	// SpawnWrap, when non-nil, wraps every spawned transport
	// (proc.Options.WrapTransport) — the engine-level entry point for
	// fault injection (internal/faultify).
	SpawnWrap func(rw io.ReadWriteCloser) io.ReadWriteCloser
	// Shards, when > 0, runs spawned sessions on a sharded scheduler with
	// that many event loops instead of one pump goroutine per session
	// (shard.go). The user session always stays pump-driven: it wraps the
	// caller's terminal, whose reads must be allowed to block.
	Shards int
	// EvalMode selects the interpreter's evaluation engine: "vm" (register
	// bytecode with inline caches, the default) or "classic" (re-parse
	// every evaluation; the frozen referee). Unknown or empty values keep
	// the default; the two modes are observably identical — the
	// conformance harness runs every scenario across them.
	EvalMode string
}

// NewEngine builds an engine with a fresh interpreter and the expect
// command set registered.
func NewEngine(opt EngineOptions) *Engine {
	e := &Engine{
		Interp:     tcl.New(),
		sessions:   make(map[int]*Session),
		userIn:     opt.UserIn,
		userOut:    opt.UserOut,
		logUser:    true,
		prof:       opt.Prof,
		rec:        opt.Rec,
		matcher:    opt.Matcher,
		virtuals:   make(map[string]proc.Program),
		remotes:    make(map[string]string),
		muxRemotes: make(map[string]string),
		transport:  opt.Transport,
		childTap:   opt.ChildTap,
		spawnWrap:  opt.SpawnWrap,
	}
	if e.userIn == nil {
		e.userIn = os.Stdin
	}
	if e.userOut == nil {
		e.userOut = os.Stdout
	}
	if opt.LogUser != nil {
		e.logUser = *opt.LogUser
	}
	if e.transport == "" {
		e.transport = "pty"
	}
	if e.rec == nil {
		// Always-on flight recording: the ring is cheap (fixed memory, no
		// allocation per event) and is the difference between a timeout
		// report that says "timed out" and one that shows the dialogue.
		e.rec = trace.New(0)
		e.rec.SetRecording(true)
	}
	if opt.Shards > 0 {
		e.sched = NewScheduler(SchedulerOptions{Shards: opt.Shards})
	}
	if m, ok := tcl.ParseEvalMode(opt.EvalMode); ok {
		e.Interp.SetEvalMode(m)
	}
	e.Interp.Stdout = e.userOut
	// The interpreter counts every Tcl command dispatch and times a seeded
	// sample of about 1 in 64. Without a profiler, only the sample reaches
	// this hook unless someone is watching (exp_internal 2, an unfiltered
	// trace tap) or the trace command is on: observation is armed when
	// wanted, as §3.3's trace is. A profiler keeps every dispatch timed,
	// so its eval histogram stays exact. Either way the ring gets the
	// sample, or every dispatch while watched or traced, each event
	// stamped with the clock reading that ended its dispatch; the vm keeps
	// its fast paths under this hook.
	if opt.Prof == nil {
		e.Interp.Watching = e.rec.Watched
	}
	e.Interp.DispatchHook = func(name string, depth int, d time.Duration) {
		e.prof.Observe(metrics.HistEvalDispatch, d)
		if e.Interp.DispatchSampled() || e.Interp.Trace != nil || e.rec.Watched() {
			e.rec.RecordAt(e.Interp.DispatchEnd(), trace.KindEval, -1, int64(d), int64(depth), false, name, "")
		}
	}
	// Script-visible defaults (§3.1).
	e.Interp.GlobalSet("timeout", "10")
	e.Interp.GlobalSet("match_max", strconv.Itoa(DefaultMatchMax))
	e.Interp.GlobalSet("expect_match", "")
	e.Interp.OnExit(func(code int) { e.exitCalled, e.exitCode = true, code })
	registerExpectCommands(e)
	return e
}

// RegisterVirtual installs an in-process program under name: a subsequent
// `spawn name` in a script runs it on the virtual transport instead of
// exec'ing a binary. The simulated rogue/chess/fsck/… programs register
// this way for hermetic scripts, tests, and benchmarks.
func (e *Engine) RegisterVirtual(name string, program proc.Program) {
	e.virtuals[name] = program
}

// RegisterRemote maps a program name to a network address: `spawn name`
// then dials the address over the socket transport instead of starting
// anything locally. Remote registrations shadow virtual ones, which is
// how the conformance matrix swaps its simulated programs out for
// loopback servers without touching the scripts.
func (e *Engine) RegisterRemote(name, addr string) {
	e.remotes[name] = addr
}

// RegisterRemoteMux maps a program name to a session-gateway address:
// `spawn name` then opens one multiplexed stream on a pooled framed
// connection to an expectd -mux listener instead of dialing a socket per
// session. Mux registrations shadow plain remote and virtual ones. The
// engine lazily creates and owns the connection pool; Shutdown closes it.
func (e *Engine) RegisterRemoteMux(name, addr string) {
	e.muxRemotes[name] = addr
}

// MuxPoolOptions presets the engine-owned mux pool's options. It must be
// called before the first mux spawn; afterwards the pool exists and the
// options are frozen.
func (e *Engine) MuxPoolOptions(opt netx.MuxOptions) {
	e.muxMu.Lock()
	defer e.muxMu.Unlock()
	if e.muxPool == nil {
		e.muxPool = netx.NewMuxPool(opt)
	}
}

// muxPoolLazy returns the engine-owned pool, creating it with defaults on
// first use.
func (e *Engine) muxPoolLazy() *netx.MuxPool {
	e.muxMu.Lock()
	defer e.muxMu.Unlock()
	if e.muxPool == nil {
		e.muxPool = netx.NewMuxPool(netx.MuxOptions{})
	}
	return e.muxPool
}

// Profiler returns the engine's profiler (may be nil).
func (e *Engine) Profiler() *metrics.Profiler { return e.prof }

// Recorder returns the engine's flight recorder (never nil). Callers can
// arm live diagnostics with Recorder().SetDiag — the exp_internal command
// and goexpect -diag do exactly that — or pull a JSONL dump after a run.
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// sessionConfig builds the per-session config for a spawn of name with the
// reserved spawn id (which doubles as the flight-recorder SID).
func (e *Engine) sessionConfig(name string, id int) *Config {
	var tap io.Writer
	if e.childTap != nil {
		e.mu.Lock()
		seq := e.spawnSeq
		e.spawnSeq++
		e.mu.Unlock()
		tap = e.childTap(seq, name)
	}
	return &Config{
		MatchMax: e.varInt("match_max", DefaultMatchMax),
		Matcher:  e.matcher,
		Prof:     e.prof,
		Logger:   e.logSink(tap),
		Rec:      e.rec,
		SID:      int32(id),
		Sched:    e.sched,
		SpawnOptions: proc.Options{
			WrapTransport: e.spawnWrap,
			Rec:           e.rec,
			TraceSID:      int32(id),
		},
	}
}

// logSink returns the child-output sink implementing log_user/log_file
// plus the per-session observer tap.
func (e *Engine) logSink(tap io.Writer) func([]byte) {
	return func(b []byte) {
		e.logMu.Lock()
		lu, lf := e.logUser, e.logFile
		e.logMu.Unlock()
		if tap != nil {
			tap.Write(b)
		}
		if lu {
			e.userOut.Write(b)
		}
		if lf != nil {
			lf.Write(b)
		}
	}
}

// varInt reads a global integer variable with a default.
func (e *Engine) varInt(name string, def int) int {
	s, ok := e.Interp.GlobalGet(name)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return n
}

// scriptTimeout converts the script's timeout variable to a duration
// (seconds; -1 means forever).
func (e *Engine) scriptTimeout() time.Duration {
	secs := e.varInt("timeout", 10)
	if secs < 0 {
		return -1
	}
	return time.Duration(secs) * time.Second
}

// reserveID allocates the next spawn id. Reserving before the spawn (not
// after, as addSession used to) lets the session and its transport carry
// the final spawn id in every flight-recorder event from the first byte.
func (e *Engine) reserveID() int {
	e.mu.Lock()
	id := e.nextID
	e.nextID++
	e.mu.Unlock()
	return id
}

// installSession registers s under its reserved id and makes it current.
func (e *Engine) installSession(id int, s *Session) {
	e.mu.Lock()
	e.sessions[id] = s
	e.mu.Unlock()
	e.Interp.GlobalSet("spawn_id", strconv.Itoa(id))
}

// Current returns the session selected by the spawn_id variable — "the
// variable spawn_id determines the current process" (§3.2).
func (e *Engine) Current() (*Session, error) {
	s, _, err := e.currentWithID()
	return s, err
}

// SessionByID looks up a session by spawn id.
func (e *Engine) SessionByID(id int) (*Session, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.sessions[id]
	return s, ok
}

// SessionIDs returns the live spawn ids in ascending order.
func (e *Engine) SessionIDs() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]int, 0, len(e.sessions))
	for id := range e.sessions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// removeSession drops id from the table (after close).
func (e *Engine) removeSession(id int) {
	e.mu.Lock()
	s := e.sessions[id]
	delete(e.sessions, id)
	e.mu.Unlock()
	if s != nil && e.rec.On() {
		e.rec.Record(trace.KindExit, int32(id), 0, 0, false, s.name, "")
	}
}

// UserSession lazily wraps the user terminal as a session so scripts can
// expect_user/send_user — the user "is essentially treated as just another
// process" (Figure 5).
func (e *Engine) UserSession() *Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.userSes == nil {
		e.userSes = NewSession(&Config{Prof: e.prof, Matcher: e.matcher, Rec: e.rec, SID: -1},
			"user", userRW{e.userIn, e.userOut})
	}
	return e.userSes
}

type userRW struct {
	r io.Reader
	w io.Writer
}

func (u userRW) Read(b []byte) (int, error)  { return u.r.Read(b) }
func (u userRW) Write(b []byte) (int, error) { return u.w.Write(b) }
func (u userRW) Close() error                { return nil }

// Spawn starts program args under the engine's transport (or as a
// registered virtual program) and makes it the current process.
func (e *Engine) Spawn(name string, args ...string) (*Session, int, error) {
	id := e.reserveID()
	cfg := e.sessionConfig(name, id)
	var (
		s   *Session
		err error
	)
	if addr, ok := e.muxRemotes[name]; ok {
		cfg.Mux = e.muxPoolLazy()
		s, err = SpawnMux(cfg, name, addr, name)
	} else if addr, ok := e.remotes[name]; ok {
		s, err = SpawnNetwork(cfg, name, addr)
	} else if prog, ok := e.virtuals[name]; ok {
		s, err = SpawnProgram(cfg, name, prog)
	} else if e.transport == "network" {
		s, err = SpawnNetwork(cfg, name, name)
	} else if e.transport == "pipe" {
		s, err = SpawnPipeCommand(cfg, name, args...)
	} else {
		s, err = SpawnCommand(cfg, name, args...)
	}
	if err != nil {
		return nil, 0, err
	}
	e.installSession(id, s)
	return s, id, nil
}

// SpawnRemote dials a TCP address and makes the socket session the
// current process — the script-level `spawn -network host:port`. The
// session is named after the address unless name is non-empty (remote
// registrations pass the program name, so transcripts and traces read in
// program terms either way).
func (e *Engine) SpawnRemote(name, addr string) (*Session, int, error) {
	if name == "" {
		name = addr
	}
	id := e.reserveID()
	cfg := e.sessionConfig(name, id)
	s, err := SpawnNetwork(cfg, name, addr)
	if err != nil {
		return nil, 0, err
	}
	e.installSession(id, s)
	return s, id, nil
}

// Run evaluates a complete script.
func (e *Engine) Run(script string) (string, error) {
	out, err := e.Interp.Eval(script)
	if e.exitCalled {
		return out, nil
	}
	return out, err
}

// RunFile loads and evaluates a script file.
func (e *Engine) RunFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return e.Run(string(data))
}

// ExitCode returns the code passed to the script's exit command (0 if exit
// was never called) and whether exit was called.
func (e *Engine) ExitCode() (int, bool) { return e.exitCode, e.exitCalled }

// Shutdown closes every live session, stops the sharded scheduler (if
// any), and closes the log file.
func (e *Engine) Shutdown() {
	e.mu.Lock()
	sessions := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		sessions = append(sessions, s)
	}
	e.sessions = make(map[int]*Session)
	e.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
	if e.sched != nil {
		e.sched.Stop()
	}
	e.muxMu.Lock()
	if e.muxPool != nil {
		e.muxPool.Close()
		e.muxPool = nil
	}
	e.muxMu.Unlock()
	e.logMu.Lock()
	if e.logFile != nil {
		e.logFile.Close()
		e.logFile = nil
	}
	e.logMu.Unlock()
}

// Scheduler returns the engine's sharded scheduler, or nil when sessions
// are pump-driven.
func (e *Engine) Scheduler() *Scheduler { return e.sched }

// SetLogUser flips the log_user state (what the user sees of the ongoing
// dialogue, §3.3).
func (e *Engine) SetLogUser(on bool) {
	e.logMu.Lock()
	e.logUser = on
	e.logMu.Unlock()
}

// LogUser reports the current log_user state.
func (e *Engine) LogUser() bool {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	return e.logUser
}

// SetLogFile starts (or stops, with "") logging all dialogue to a file.
func (e *Engine) SetLogFile(path string) error {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	if e.logFile != nil {
		e.logFile.Close()
		e.logFile = nil
	}
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	e.logFile = f
	return nil
}
