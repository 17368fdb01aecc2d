package conformance

// Engine scenarios: hand-built session dialogues that hit the semantic
// corners scripts don't reach cleanly — a timeout firing over a partial
// match, EOF mid-pattern, match_max overflow, multi-session fan-in, and
// interact pass-through. Each scenario drives the core API directly and
// reduces its run to a summary string built only from chunking-invariant
// observables (Exact-case consumed text, first-occurrence positions,
// total byte counts, exit reasons), so every variant × condition cell
// must produce the identical summary.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultify"
	"repro/internal/netx"
	"repro/internal/proc"
	"repro/internal/trace"
)

// Scenario is one differential dialogue: a virtual child program plus a
// driver that converses with it and summarizes what happened.
type Scenario struct {
	Name    string
	Program proc.Program
	// Drive runs the dialogue and returns the invariant summary.
	Drive func(s *core.Session) (string, error)
}

// blockForever parks a child on stdin so its stream stays open (reading
// into a spare byte, since virtual programs must not over-consume).
func blockForever(stdin io.Reader) {
	io.Copy(io.Discard, stdin)
}

// Scenarios is the table. Summaries use Exact cases (consumed text =
// first occurrence, invariant) rather than glob Text (anchored to the
// whole buffer, segmentation-dependent by design).
var Scenarios = []Scenario{
	{
		Name: "prompt-response",
		Program: func(stdin io.Reader, stdout io.Writer) error {
			io.WriteString(stdout, "login: ")
			line := readLine(stdin)
			io.WriteString(stdout, "Password for "+line+": ")
			readLine(stdin)
			io.WriteString(stdout, "Welcome!\r\nlast login: yesterday\r\n")
			return nil
		},
		Drive: func(s *core.Session) (string, error) {
			var sum strings.Builder
			for _, step := range []struct{ want, send string }{
				{"login: ", "guest\n"},
				{"Password for guest: ", "secret\n"},
				{"Welcome!", ""},
			} {
				r, err := s.ExpectTimeout(5*time.Second, core.Exact(step.want))
				if err != nil {
					return "", err
				}
				fmt.Fprintf(&sum, "[%s]", r.Text)
				if step.send != "" {
					if err := s.Send(step.send); err != nil {
						return "", err
					}
				}
			}
			// Let the stream finish and fold in the tail.
			r, err := s.ExpectTimeout(5*time.Second, core.EOFCase())
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sum, "[eof:%s]", r.Text)
			return sum.String(), nil
		},
	},
	{
		Name: "timeout-over-partial-match",
		Program: func(stdin io.Reader, stdout io.Writer) error {
			io.WriteString(stdout, "par")
			one := make([]byte, 1)
			if _, err := stdin.Read(one); err != nil {
				return nil
			}
			io.WriteString(stdout, "tial complete")
			blockForever(stdin)
			return nil
		},
		Drive: func(s *core.Session) (string, error) {
			r, err := s.ExpectTimeout(300*time.Millisecond,
				core.Glob("*complete*"), core.TimeoutCase())
			if err != nil {
				return "", err
			}
			sum := fmt.Sprintf("timeout=%v partial=%q", r.TimedOut, r.Text)
			if err := s.Send("g"); err != nil {
				return "", err
			}
			r, err = s.ExpectTimeout(5*time.Second, core.Exact("complete"))
			if err != nil {
				return "", err
			}
			return sum + fmt.Sprintf(" then=%q", r.Text), nil
		},
	},
	{
		Name: "eof-mid-pattern",
		Program: func(stdin io.Reader, stdout io.Writer) error {
			io.WriteString(stdout, "user na") // hangs up mid-"username:"
			return nil
		},
		Drive: func(s *core.Session) (string, error) {
			r, err := s.ExpectTimeout(5*time.Second,
				core.Glob("*username:*"), core.EOFCase())
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("eof=%v text=%q", r.Eof, r.Text), nil
		},
	},
	{
		Name: "match-max-overflow",
		Program: func(stdin io.Reader, stdout io.Writer) error {
			stdout.Write(bytes.Repeat([]byte{'a'}, 6000))
			io.WriteString(stdout, "MARKER")
			blockForever(stdin)
			return nil
		},
		Drive: func(s *core.Session) (string, error) {
			s.SetMatchMax(512)
			r, err := s.ExpectTimeout(10*time.Second, core.Exact("MARKER"))
			if err != nil {
				return "", err
			}
			// The matched text must fit match_max and end at the marker;
			// the total stream length is invariant even though the exact
			// retained window depends on read segmentation.
			return fmt.Sprintf("suffix=%v len<=512=%v total=%d",
				strings.HasSuffix(r.Text, "MARKER"), len(r.Text) <= 512, s.TotalSeen()), nil
		},
	},
}

// ScenarioRun parameterizes one scenario execution cell: the matcher ×
// schedule axes, scheduler ownership, and — when Network is set — the
// transport itself: each spawn then runs its program behind a one-shot
// loopback TCP server and the session dials it, so the identical drive
// logic exercises the socket transport.
type ScenarioRun struct {
	Matcher core.MatcherMode
	Sched   faultify.Schedule
	Shards  int
	Network bool
	// Mux runs each spawn behind a one-shot session gateway instead: the
	// program is served by a netx.MuxServer and the session is a framed
	// stream opened through a MuxPool — the multiplexed transport arm of
	// the differential. Takes precedence over Network.
	Mux bool
	// NoPoller pins network sessions to the fallback reader goroutine
	// instead of a shard readiness poller. The epoll loop and the
	// fallback reader must be byte-identical; this flag is the other arm
	// of that differential.
	NoPoller bool
	// Rec, when non-nil, is an armed flight recorder the run's sessions
	// report to — with a journal attached it captures the full replayable
	// event stream (see RunScenarioJournaled).
	Rec *trace.Recorder
}

// spawn starts one scenario child under the run's transport. The
// returned cleanup tears down the loopback server or gateway (no-op for
// virtual). Under a scheduler every child must run on a shard: one left
// to a pump would repeat a pump cell, so spawn fails the cell instead.
func (rn ScenarioRun) spawn(cfg *core.Config, name string, prog proc.Program) (*core.Session, func(), error) {
	s, cleanup, err := rn.spawnOn(cfg, name, prog)
	if err == nil && cfg.Sched != nil && s.ShardIndex() < 0 {
		s.Close()
		cleanup()
		return nil, nil, fmt.Errorf("%s runs on a pump in a %d-shard cell", name, rn.Shards)
	}
	return s, cleanup, err
}

func (rn ScenarioRun) spawnOn(cfg *core.Config, name string, prog proc.Program) (*core.Session, func(), error) {
	if rn.Mux {
		srv, err := netx.NewMuxServer("127.0.0.1:0",
			map[string]proc.Program{name: prog}, netx.MuxServerOptions{})
		if err != nil {
			return nil, nil, err
		}
		pool := netx.NewMuxPool(netx.MuxOptions{})
		cfg.Mux = pool
		s, err := core.SpawnMux(cfg, name, srv.Addr(), name)
		if err != nil {
			pool.Close()
			srv.Shutdown(0)
			return nil, nil, err
		}
		return s, func() {
			pool.Close()
			srv.Shutdown(drainDeadline)
		}, nil
	}
	if !rn.Network {
		s, err := core.SpawnProgram(cfg, name, prog)
		return s, func() {}, err
	}
	srv, err := netx.NewServer("127.0.0.1:0", prog)
	if err != nil {
		return nil, nil, err
	}
	cfg.NetOptions.NoPoller = rn.NoPoller
	s, err := core.SpawnNetwork(cfg, name, srv.Addr())
	if err != nil {
		srv.Shutdown(0)
		return nil, nil, err
	}
	return s, func() { srv.Shutdown(drainDeadline) }, nil
}

// FanInScenario needs two sessions, so it lives outside the table shape:
// a talker that must win the ExpectAny race and a silent bystander.
func runFanIn(rn ScenarioRun, scheduler *core.Scheduler) (string, error) {
	cfg := scenarioConfig(rn.Matcher, rn.Sched, rn.Sched.Clean())
	cfg.Sched = scheduler
	cfg.Rec = rn.Rec
	cfg.SID = 1
	talker, cleanupT, err := rn.spawn(cfg, "talker",
		func(stdin io.Reader, stdout io.Writer) error {
			io.WriteString(stdout, "ok ready\n")
			blockForever(stdin)
			return nil
		})
	if err != nil {
		return "", err
	}
	defer cleanupT()
	defer talker.Close()
	cfg2 := *cfg
	cfg2.SID = 2
	silent, cleanupS, err := rn.spawn(&cfg2, "silent",
		func(stdin io.Reader, stdout io.Writer) error {
			blockForever(stdin)
			return nil
		})
	if err != nil {
		return "", err
	}
	defer cleanupS()
	defer silent.Close()
	winner, r, err := core.ExpectAny(5*time.Second,
		[]*core.Session{silent, talker}, core.Exact("ready"), core.TimeoutCase())
	if err != nil {
		return "", err
	}
	sum := fmt.Sprintf("winner=%s case=%d text=%q", sessName(winner), r.Index, r.Text)
	// With nothing further coming, the shared deadline must fire.
	winner, r, err = core.ExpectAny(200*time.Millisecond,
		[]*core.Session{silent, talker}, core.Exact("never"), core.TimeoutCase())
	if err != nil {
		return "", err
	}
	return sum + fmt.Sprintf(" then-winner=%s timeout=%v", sessName(winner), r.TimedOut), nil
}

// runInteract checks the pass-through loop: scripted keystrokes flow to
// an echo child, its replies flow back, and its exit ends the session.
func runInteract(rn ScenarioRun, scheduler *core.Scheduler) (string, error) {
	cfg := scenarioConfig(rn.Matcher, rn.Sched, rn.Sched.Clean())
	cfg.Sched = scheduler
	cfg.Rec = rn.Rec
	cfg.SID = 1
	s, cleanup, err := rn.spawn(cfg, "echo",
		func(stdin io.Reader, stdout io.Writer) error {
			io.WriteString(stdout, "shell> ")
			for {
				line := readLine(stdin)
				if line == "" || line == "exit" {
					io.WriteString(stdout, "goodbye\n")
					return nil
				}
				io.WriteString(stdout, "ran "+line+"\nshell> ")
			}
		})
	if err != nil {
		return "", err
	}
	defer cleanup()
	defer s.Close()
	var userOut lockedBuf
	outcome, err := s.Interact(core.InteractOptions{
		UserIn:  &idleAfter{r: strings.NewReader("date\nexit\n")},
		UserOut: &userOut,
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("reason=%v out=%q", outcome.Reason, userOut.String()), nil
}

func sessName(s *core.Session) string {
	if s == nil {
		return "<none>"
	}
	return s.Name()
}

// scenarioConfig builds a session config for matcher m under sched.
func scenarioConfig(m core.MatcherMode, sched faultify.Schedule, clean bool) *core.Config {
	cfg := &core.Config{Matcher: m}
	if !clean {
		cfg.SpawnOptions.WrapTransport = faultify.Wrapper(sched, nil)
	}
	return cfg
}

// RunScenario executes one table scenario for a matcher/schedule cell
// with the per-session pump baseline.
func RunScenario(sc Scenario, m core.MatcherMode, sched faultify.Schedule) (string, error) {
	return RunScenarioSharded(sc, m, sched, 0)
}

// RunScenarioSharded is RunScenario with the session(s) owned by a
// sharded scheduler of the given size (0 = pump baseline). The summary
// must be identical either way — scheduling is not an observable.
func RunScenarioSharded(sc Scenario, m core.MatcherMode, sched faultify.Schedule, shards int) (string, error) {
	return RunScenarioWith(sc, ScenarioRun{Matcher: m, Sched: sched, Shards: shards})
}

// RunScenarioWith executes one scenario cell under full ScenarioRun
// control — matcher, fault schedule, scheduler shape, and transport.
// Neither scheduling nor the transport is an observable: the summary
// must be identical across every cell.
func RunScenarioWith(sc Scenario, rn ScenarioRun) (string, error) {
	var scheduler *core.Scheduler
	if rn.Shards > 0 {
		scheduler = core.NewScheduler(core.SchedulerOptions{Shards: rn.Shards})
		defer scheduler.Stop()
	}
	switch sc.Name {
	case "fan-in":
		return runFanIn(rn, scheduler)
	case "interact-passthrough":
		return runInteract(rn, scheduler)
	}
	cfg := scenarioConfig(rn.Matcher, rn.Sched, rn.Sched.Clean())
	cfg.Sched = scheduler
	cfg.Rec = rn.Rec
	cfg.SID = 1
	s, cleanup, err := rn.spawn(cfg, sc.Name, sc.Program)
	if err != nil {
		return "", err
	}
	defer cleanup()
	defer s.Close()
	return sc.Drive(s)
}

// RunScenarioJournaled executes one scenario cell with a journal-armed
// flight recorder and returns the summary plus the durable JSONL journal
// — the replayable record of everything the engine observed. This is the
// journal the replay-determinism matrix re-drives and the one a
// divergence report embeds.
func RunScenarioJournaled(sc Scenario, rn ScenarioRun) (string, []byte, error) {
	rec := trace.New(0)
	jrn := trace.NewJournal()
	rec.SetJournal(jrn)
	rn.Rec = rec
	sum, err := RunScenarioWith(sc, rn)
	return sum, jrn.Bytes(), err
}

// AllScenarios returns the table plus the special-cased multi-session and
// interact scenarios, addressable by name through RunScenario.
func AllScenarios() []Scenario {
	return append(Scenarios[:len(Scenarios):len(Scenarios)],
		Scenario{Name: "fan-in"},
		Scenario{Name: "interact-passthrough"},
	)
}

// readLine reads a newline-terminated line one byte at a time (virtual
// programs share a duplex stream and must not over-read).
func readLine(r io.Reader) string {
	var sb strings.Builder
	one := make([]byte, 1)
	for {
		n, err := r.Read(one)
		if n > 0 {
			if one[0] == '\n' {
				break
			}
			sb.WriteByte(one[0])
		}
		if err != nil {
			break
		}
	}
	return strings.TrimSuffix(sb.String(), "\r")
}

// idleAfter yields its reader's content and then blocks forever, like a
// user who typed a few commands and is now sitting at the keyboard.
type idleAfter struct {
	r io.Reader
}

func (t *idleAfter) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n == 0 && err == io.EOF {
		select {}
	}
	return n, nil
}
