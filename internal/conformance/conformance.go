// Package conformance is the differential harness: it replays the shipped
// scripts/*.exp and a table of engine scenarios through every engine
// variant (rescan vs incremental matching × the classic/vm Tcl
// evaluation modes) and through clean vs deterministically-faultified
// transports (internal/faultify), then asserts that the observable
// outcomes are identical.
//
// What counts as observable is chosen to be chunking-invariant, because
// §3.1's anchored glob semantics make some surfaces legitimately depend
// on read segmentation (an early `*foo*` match consumes whatever partial
// buffer happens to hold "foo"). The invariant surfaces compared here:
//
//   - the user-facing transcript produced by the script itself
//     (send_user/print output, with log_user off so racy pump chunks
//     never interleave),
//   - each child's complete raw output stream, captured per spawn
//     ordinal by the engine's ChildTap hook and drained to process exit
//     before comparison,
//   - the script's exit code and error disposition.
//
// A divergence is reported with the variant, the fault schedule (whose
// Seed fully determines the perturbation), and a greedily minimized
// schedule that still reproduces it — a self-contained repro recipe.
package conformance

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultify"
	"repro/internal/metrics"
	"repro/internal/netx"
	"repro/internal/proc"
	"repro/internal/programs/authsim"
	"repro/internal/programs/eliza"
	"repro/internal/programs/fsck"
	"repro/internal/programs/modem"
	"repro/internal/programs/rogue"
	"repro/internal/tcl"
	"repro/internal/trace"
)

// Variant names one engine configuration under test.
type Variant struct {
	Name string
	// Matcher selects the glob scan strategy (rescan is the seed
	// baseline; incremental is the NFA-feeding optimisation).
	Matcher core.MatcherMode
	// EvalMode, when non-empty, selects the interpreter's evaluation
	// engine ("classic" or "vm" — see tcl.ParseEvalMode). Empty keeps the
	// engine default, the vm with its compile caches, as an engine built
	// with no eval mode runs it; those cells are named "cached", so every
	// name still says which evaluator its cell runs. The register-bytecode
	// vm must be observably identical to the classic referee on every
	// script, scenario, and fault schedule.
	EvalMode string
	// Watched arms the engine's recorder at diagnostics level 2
	// (SetDiag(2, io.Discard)), as exp_internal 2 does: the interpreter
	// then times, hooks and records every dispatch instead of a seeded
	// sample, and the recorder renders every event. Watching must change
	// no observable.
	Watched bool
	// Shards > 0 runs the engine's sessions under a sharded scheduler
	// with that many event loops instead of per-session pump goroutines.
	Shards int
	// Network serves every simulated program behind its own fresh
	// loopback TCP server (internal/netx) and registers the names as
	// remotes, so each spawn dials a socket instead of starting an
	// in-process virtual — the loopback-socket transport variant. The
	// observables must still be byte-identical: the wire adds real
	// segmentation, which is exactly what the invariant surfaces are
	// chosen to be immune to.
	Network bool
	// Mux serves every simulated program behind one shared session
	// gateway (netx.MuxServer) and registers the names as mux remotes, so
	// each spawn opens a framed stream on a pooled TCP connection instead
	// of dialing its own socket — the multiplexed-gateway transport
	// variant. Demultiplexing adds another layer of re-segmentation and
	// interleaving on a shared wire; the observables must still be
	// byte-identical to the one-conn-one-session referee.
	Mux bool
}

// Variants is the full matrix: both matchers × the classic referee, the
// explicitly selected vm, and the engine default ("cached", the same vm
// reached without naming it), plus the sharded-scheduler and transport
// cells (shard counts pinned explicitly — the default would collapse to
// GOMAXPROCS). The six cached cells with a vm twin (pump, shard1, shard8,
// net and mux) run watched, so the twin pair checks that observing every
// dispatch changes nothing on each kind of session. Only the clean
// condition drives the shard cells' sessions through a shard: a fault
// condition wraps every transport, the wrapper hides TryRead, and those
// sessions run on pumps beside the cell's scheduler. Variants[0], the
// classic referee on the seed's rescan matcher, is the baseline every
// cell is compared against.
var Variants = []Variant{
	{Name: "rescan-classic", Matcher: core.MatcherRescan, EvalMode: "classic"},
	{Name: "rescan-cached", Matcher: core.MatcherRescan, Watched: true},
	{Name: "incremental-cached", Matcher: core.MatcherIncremental, Watched: true},
	{Name: "incremental-classic", Matcher: core.MatcherIncremental, EvalMode: "classic"},
	{Name: "rescan-vm", Matcher: core.MatcherRescan, EvalMode: "vm"},
	{Name: "incremental-vm", Matcher: core.MatcherIncremental, EvalMode: "vm"},
	{Name: "rescan-cached-shard1", Matcher: core.MatcherRescan, Shards: 1, Watched: true},
	{Name: "rescan-cached-shard8", Matcher: core.MatcherRescan, Shards: 8, Watched: true},
	{Name: "incremental-cached-shard8", Matcher: core.MatcherIncremental, Shards: 8},
	{Name: "rescan-vm-shard1", Matcher: core.MatcherRescan, EvalMode: "vm", Shards: 1},
	{Name: "rescan-vm-shard8", Matcher: core.MatcherRescan, EvalMode: "vm", Shards: 8},
	{Name: "rescan-cached-net", Matcher: core.MatcherRescan, Network: true, Watched: true},
	{Name: "rescan-cached-net-shard8", Matcher: core.MatcherRescan, Shards: 8, Network: true},
	{Name: "rescan-vm-net", Matcher: core.MatcherRescan, EvalMode: "vm", Network: true},
	{Name: "rescan-cached-mux", Matcher: core.MatcherRescan, Mux: true, Watched: true},
	{Name: "rescan-cached-mux-shard8", Matcher: core.MatcherRescan, Shards: 8, Mux: true},
	{Name: "rescan-vm-mux", Matcher: core.MatcherRescan, EvalMode: "vm", Mux: true},
}

// applyEval gives an interpreter the variant's evaluation mode.
func (v Variant) applyEval(i *tcl.Interp) {
	if m, ok := tcl.ParseEvalMode(v.EvalMode); ok {
		i.SetEvalMode(m)
	}
}

// Condition names one transport treatment. A Clean schedule means the
// transport is not wrapped at all.
type Condition struct {
	Name  string
	Sched faultify.Schedule
}

// Conditions are the semantics-preserving perturbations: they reorder
// nothing and lose nothing, so every outcome must match the clean
// baseline bit for bit. (Semantics-altering faults — CutAfterBytes —
// are reserved for the mutation test, which proves the harness detects
// what it is supposed to detect.)
var Conditions = []Condition{
	{"clean", faultify.Schedule{Seed: 1}},
	{"reseg1", faultify.Schedule{Seed: 11, MaxReadChunk: 1}},
	{"mixed", faultify.Schedule{
		Seed:                 12,
		MaxReadChunk:         3,
		MaxWriteChunk:        2,
		TransientEveryN:      5,
		WriteTransientEveryN: 7,
		DelayEveryN:          9,
		ReadDelay:            time.Millisecond,
	}},
}

// Child is one spawned process's complete output stream, in spawn order.
type Child struct {
	Seq        int
	Name       string
	Transcript string
}

// Outcome is everything the harness compares for one run.
type Outcome struct {
	// User is what the script printed to the user (send_user, print);
	// log_user is off so no raw pump chunks interleave here.
	User string
	// Children holds each spawned process's drained output stream.
	Children []Child
	// ExitCode/ExitCalled mirror Engine.ExitCode.
	ExitCode   int
	ExitCalled bool
	// Err is the script-level error ("" on success).
	Err string
	// Faults snapshots the injected-fault counters (report-only; never
	// compared — two runs legitimately differ in how many reads the
	// schedule happened to split).
	Faults map[string]int64
	// Dump is the run's bounded flight recording (JSONL, last
	// dumpTailEvents events): reads, pattern attempts, injected faults,
	// timer activity. Report-only, never compared — timings and chunk
	// boundaries legitimately differ between runs. When a cell diverges,
	// this is the black box that says what the engine actually saw.
	Dump []byte
	// Journal is the run's full durable journal (trace journal mode:
	// complete payloads, unbounded length) — unlike Dump it is not a
	// preview but the replayable record: internal/replay re-drives it
	// byte-for-byte and must reproduce the same observables standalone.
	Journal []byte
}

// dumpTailEvents bounds the flight-recording tail attached to each
// outcome; it matches the engine's own incident-dump depth.
const dumpTailEvents = 128

// ScriptCase is one shipped script with its run parameters.
type ScriptCase struct {
	// File is the name under scripts/.
	File string
	Args []string
	// CompareUser: rogue.exp ends in `interact`, whose pass-through drain
	// races the user's EOF, so its user transcript is legitimately
	// nondeterministic and excluded from comparison. Child transcripts
	// and exit codes are still compared for every script.
	CompareUser bool
}

// Scripts lists every shipped script. callback.exp runs its busy branch
// in integration tests; here the connect branch exercises the modem
// dialogue (the 4-second courtesy sleep is the script's own behaviour).
var Scripts = []ScriptCase{
	{File: "callback.exp", Args: []string{"12016442332"}, CompareUser: true},
	{File: "elizaduet.exp", CompareUser: true},
	{File: "fsck.exp", CompareUser: true},
	{File: "login.exp", CompareUser: true},
	{File: "passwd.exp", CompareUser: true},
	{File: "rogue.exp", CompareUser: false},
}

// ScriptedScenarios are the interpreter-heavy dialogue fixtures under
// testdata/: unlike the engine-scenario table (scenarios.go), which
// drives sessions through the core API with no interpreter in the loop,
// these compute every sent byte with procs, loops, and expr between
// expect wakeups — so the eval-mode axis (classic/vm) is load-bearing
// for every cell. They run through RunScript with scriptsDir
// pointed at the package testdata directory.
var ScriptedScenarios = []ScriptCase{
	{File: "vmdialog.exp", CompareUser: true},
	{File: "vmcompute.exp", CompareUser: true},
}

// sim pairs a spawnable name with its program.
type sim struct {
	name string
	prog proc.Program
}

// deterministicSims builds the simulated programs with pinned seeds and
// no environment dependence, unlike the CLI's registration (time-based
// seeds, $USER): differential comparison needs every run of a sim to
// emit byte-identical output for identical input. Built fresh per run so
// stateful program values never carry dialogue state across runs.
func deterministicSims() []sim {
	return []sim{
		{"rogue-sim", rogue.New(rogue.Config{
			Seed: 7, LuckNumerator: 1, LuckDenominator: 1,
		})},
		{"eliza-sim", eliza.New(eliza.Config{Seed: 42})},
		{"fsck-sim", fsck.New(fsck.Config{
			FS: fsck.Generate(7, 20, 100, 6),
		})},
		{"passwd-sim", authsim.NewPasswd(authsim.PasswdConfig{
			User:       "don",
			Dictionary: []string{"password", "dragon", "letmein", "qwerty"},
		})},
		{"login-sim", authsim.NewLogin(authsim.LoginConfig{
			Accounts: map[string]string{"guest": "guest", "don": "secret"},
		})},
		{"tip-sim", modem.NewTip(modem.TipConfig{Modem: modem.Config{
			Directory: map[string]modem.Entry{
				"12016442332": {Result: modem.ResultConnect, Delay: 50 * time.Millisecond},
				"5550000":     {Result: modem.ResultBusy},
			},
			Default: modem.Entry{Result: modem.ResultNoCarrier, Delay: 100 * time.Millisecond},
		}})},
	}
}

// simServers owns whatever loopback infrastructure a transport variant
// stood up for the simulated programs: one plain server per sim for the
// Network axis, or one shared session gateway for the Mux axis.
type simServers struct {
	plain []*netx.Server
	mux   *netx.MuxServer
}

// shutdown drains every server within grace. Called after the engine has
// hung up all its sessions, so programs are already returning.
func (ss *simServers) shutdown(grace time.Duration) {
	for _, s := range ss.plain {
		s.Shutdown(grace)
	}
	if ss.mux != nil {
		ss.mux.Shutdown(grace)
	}
}

// registerDeterministicSims installs the sims into the engine: as
// in-process virtuals normally; for a Network variant behind per-run
// loopback TCP servers dialed by name; for a Mux variant behind one
// shared session gateway whose streams the engine's pooled client opens
// by program name. The remote registrations keep spawn names (and hence
// Child.Name and trace text) identical across transports. It returns the
// servers to shut down after the run (zero-valued when in-process).
func registerDeterministicSims(eng *core.Engine, v Variant) (*simServers, error) {
	ss := &simServers{}
	switch {
	case v.Mux:
		progs := make(map[string]proc.Program)
		for _, sm := range deterministicSims() {
			progs[sm.name] = sm.prog
		}
		srv, err := netx.NewMuxServer("127.0.0.1:0", progs, netx.MuxServerOptions{})
		if err != nil {
			return nil, fmt.Errorf("mux gateway for sims: %w", err)
		}
		ss.mux = srv
		for name := range progs {
			eng.RegisterRemoteMux(name, srv.Addr())
		}
	case v.Network:
		for _, sm := range deterministicSims() {
			srv, err := netx.NewServer("127.0.0.1:0", sm.prog)
			if err != nil {
				ss.shutdown(0)
				return nil, fmt.Errorf("loopback server for %s: %w", sm.name, err)
			}
			ss.plain = append(ss.plain, srv)
			eng.RegisterRemote(sm.name, srv.Addr())
		}
	default:
		for _, sm := range deterministicSims() {
			eng.RegisterVirtual(sm.name, sm.prog)
		}
	}
	return ss, nil
}

// lockedBuf is a pump-goroutine-safe byte sink.
type lockedBuf struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// tapSet collects per-spawn child transcripts keyed by spawn ordinal.
type tapSet struct {
	mu   sync.Mutex
	taps []*childTap
}

type childTap struct {
	seq  int
	name string
	buf  lockedBuf
}

func (ts *tapSet) hook(seq int, name string) io.Writer {
	ct := &childTap{seq: seq, name: name}
	ts.mu.Lock()
	ts.taps = append(ts.taps, ct)
	ts.mu.Unlock()
	return &ct.buf
}

func (ts *tapSet) children() []Child {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]Child, 0, len(ts.taps))
	for _, ct := range ts.taps {
		out = append(out, Child{Seq: ct.seq, Name: ct.name, Transcript: ct.buf.String()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// drainDeadline bounds how long RunScript waits for a child to exit after
// its stdin is half-closed during the drain protocol.
const drainDeadline = 10 * time.Second

// RunScript replays scriptsDir/sc.File through one engine variant with
// one fault schedule and returns the invariant outcome.
//
// The drain protocol matters: a script often ends with bytes still in
// flight (a logout banner, a farewell line). Comparing transcripts
// truncated at whatever instant the script happened to finish would be
// pure noise, so before shutdown every surviving session's write side is
// closed (the child sees EOF and exits) and the pump is allowed to drain
// the stream to EOF. Only then are transcripts collected.
func RunScript(scriptsDir string, sc ScriptCase, v Variant, sched faultify.Schedule) (*Outcome, error) {
	taps := &tapSet{}
	var user lockedBuf
	counters := metrics.NewCounters()
	logUser := false
	// One armed recorder shared by the engine and the fault injector, so a
	// divergence report interleaves what the adversary did with what the
	// engine saw, in one sequence-ordered recording.
	rec := trace.New(0)
	rec.SetRecording(true)
	// Journal mode rides along: the ring keeps serving the bounded Dump
	// while the journal retains every event with full payloads, so a
	// diverging cell ships a standalone replayable record of itself.
	jrn := trace.NewJournal()
	rec.SetJournal(jrn)
	if v.Watched {
		rec.SetDiag(2, io.Discard)
	}
	opts := core.EngineOptions{
		UserIn:   strings.NewReader(""),
		UserOut:  &user,
		Matcher:  v.Matcher,
		LogUser:  &logUser,
		ChildTap: taps.hook,
		Rec:      rec,
		Shards:   v.Shards,
	}
	if !sched.Clean() {
		opts.SpawnWrap = faultify.TracedWrapper(sched, counters, rec)
	}
	eng := core.NewEngine(opts)
	v.applyEval(eng.Interp)
	servers, err := registerDeterministicSims(eng, v)
	if err != nil {
		return nil, err
	}
	eng.Interp.GlobalSet("argv", tcl.FormList(append([]string{sc.File}, sc.Args...)))

	_, runErr := eng.RunFile(scriptsDir + "/" + sc.File)

	// Drain: half-close each surviving session and wait for its stream to
	// reach EOF so transcripts are complete, not cut at script end.
	for _, id := range eng.SessionIDs() {
		s, ok := eng.SessionByID(id)
		if !ok {
			continue
		}
		s.CloseWrite()
		done := make(chan struct{})
		go func() { s.WaitPumpDrained(); close(done) }()
		select {
		case <-done:
		case <-time.After(drainDeadline):
			// A child that ignores EOF would hang the harness; kill it.
			s.Kill()
		}
	}
	eng.Shutdown()
	// Loopback servers drain after the engine hangs up: every session has
	// had its FIN (or its CLOSE frame), so the programs are already
	// returning.
	servers.shutdown(drainDeadline)

	out := &Outcome{
		User:     user.String(),
		Children: taps.children(),
		Faults:   counters.Snapshot(),
		Dump:     rec.Dump(dumpTailEvents),
		Journal:  jrn.Bytes(),
	}
	out.ExitCode, out.ExitCalled = eng.ExitCode()
	if runErr != nil {
		out.Err = runErr.Error()
	}
	return out, nil
}

// Diff explains the first difference between two outcomes, or returns ""
// when they agree on every compared surface.
func Diff(base, got *Outcome, compareUser bool) string {
	if base.Err != got.Err {
		return fmt.Sprintf("script error: baseline %q vs %q", base.Err, got.Err)
	}
	if base.ExitCalled != got.ExitCalled || base.ExitCode != got.ExitCode {
		return fmt.Sprintf("exit status: baseline (%d, called=%v) vs (%d, called=%v)",
			base.ExitCode, base.ExitCalled, got.ExitCode, got.ExitCalled)
	}
	if compareUser && base.User != got.User {
		return fmt.Sprintf("user transcript: baseline %q vs %q", base.User, got.User)
	}
	if len(base.Children) != len(got.Children) {
		return fmt.Sprintf("spawn count: baseline %d vs %d", len(base.Children), len(got.Children))
	}
	for i := range base.Children {
		b, g := base.Children[i], got.Children[i]
		if b.Name != g.Name {
			return fmt.Sprintf("spawn #%d: baseline %q vs %q", i, b.Name, g.Name)
		}
		if b.Transcript != g.Transcript {
			return fmt.Sprintf("child %q (#%d) transcript: baseline %d bytes vs %d bytes; first divergence at offset %d",
				b.Name, i, len(b.Transcript), len(g.Transcript), firstDiff(b.Transcript, g.Transcript))
		}
	}
	return ""
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// Divergence is a failed comparison packaged as a repro recipe.
type Divergence struct {
	Subject  string // script file or scenario name
	Variant  Variant
	Schedule faultify.Schedule // schedule that produced the divergence
	Minimal  faultify.Schedule // smallest schedule still reproducing it
	Detail   string            // Diff output
	// Dump is the diverging run's flight recording (Outcome.Dump): the
	// JSONL black box embedded in the report so the reader sees the reads,
	// attempts, and injected faults leading up to the divergence without
	// re-running anything.
	Dump []byte
	// Journal is the diverging run's full replayable journal
	// (Outcome.Journal): internal/replay.RunJournal re-drives it
	// standalone — no sims, no faults, no scheduler — and must reproduce
	// the identical dispositions, which is how the harness confirms a
	// divergence is real engine behaviour rather than run-to-run noise.
	Journal []byte
}

func (d *Divergence) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb,
		"conformance divergence in %s [variant %s]\n  %s\n  repro: schedule %s\n  minimized: schedule %s",
		d.Subject, d.Variant.Name, d.Detail, d.Schedule.String(), d.Minimal.String())
	if len(d.Dump) > 0 {
		sb.WriteString("\n  flight recording (JSONL, last ")
		fmt.Fprintf(&sb, "%d events max):", dumpTailEvents)
		for _, line := range strings.Split(strings.TrimRight(string(d.Dump), "\n"), "\n") {
			sb.WriteString("\n    ")
			sb.WriteString(line)
		}
	}
	if n := bytesLines(d.Journal); n > 0 {
		fmt.Fprintf(&sb, "\n  replayable journal: %d events, %d bytes (re-drive with internal/replay.RunJournal)",
			n, len(d.Journal))
	}
	return sb.String()
}

// bytesLines counts newline-terminated records in a JSONL blob.
func bytesLines(b []byte) int {
	n := 0
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n
}

// Minimize greedily strips fault classes from sched while diverges keeps
// reporting the divergence, returning the smallest schedule found. The
// result is what a human debugs: rather than "the mixed schedule breaks
// passwd.exp", it answers "a forced EOF after 5 bytes breaks passwd.exp".
func Minimize(sched faultify.Schedule, diverges func(faultify.Schedule) bool) faultify.Schedule {
	drop := []func(*faultify.Schedule){
		func(s *faultify.Schedule) { s.TransientEveryN = 0 },
		func(s *faultify.Schedule) { s.WriteTransientEveryN = 0 },
		func(s *faultify.Schedule) { s.DelayEveryN, s.ReadDelay = 0, 0 },
		func(s *faultify.Schedule) { s.MaxWriteChunk = 0 },
		func(s *faultify.Schedule) { s.MaxReadChunk = 0 },
		func(s *faultify.Schedule) { s.CutAfterBytes = 0 },
	}
	for _, mod := range drop {
		candidate := sched
		mod(&candidate)
		if candidate == sched {
			continue // class not present
		}
		if diverges(candidate) {
			sched = candidate
		}
	}
	return sched
}
