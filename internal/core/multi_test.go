package core

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

func spawnSpeaker(t *testing.T, name, line string, delay time.Duration) *Session {
	t.Helper()
	s, err := SpawnProgram(nil, name, func(stdin io.Reader, stdout io.Writer) error {
		if delay > 0 {
			time.Sleep(delay)
		}
		fmt.Fprintln(stdout, line)
		io.Copy(io.Discard, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// spawnGated starts a speaker that stays silent until the returned
// release is called — deterministic "hasn't spoken yet", where a
// sleep-delayed speaker would turn into a race on a loaded machine.
// Cleanup releases it regardless, so the program goroutine always
// unwinds.
func spawnGated(t *testing.T, name, line string) (*Session, func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	s, err := SpawnProgram(nil, name, func(stdin io.Reader, stdout io.Writer) error {
		<-gate
		fmt.Fprintln(stdout, line)
		io.Copy(io.Discard, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { release(); s.Close() })
	return s, release
}

func TestExpectAnyFirstSpeakerWins(t *testing.T) {
	slow, _ := spawnGated(t, "slow", "slow-data")
	fast := spawnSpeaker(t, "fast", "fast-data", 0)
	winner, r, err := ExpectAny(2*time.Second, []*Session{slow, fast},
		Glob("*data*"))
	if err != nil {
		t.Fatalf("ExpectAny: %v", err)
	}
	if winner != fast {
		t.Errorf("winner = %s, want fast", winner.Name())
	}
	if !strings.Contains(r.Text, "fast-data") {
		t.Errorf("Text = %q", r.Text)
	}
}

func TestExpectAnyConsumesOnlyWinner(t *testing.T) {
	a := spawnSpeaker(t, "a", "alpha", 0)
	b := spawnSpeaker(t, "b", "beta", 0)
	// Wait until both have data so consumption is observable.
	deadline := time.Now().Add(2 * time.Second)
	for (a.Buffer() == "" || b.Buffer() == "") && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	winner, _, err := ExpectAny(2*time.Second, []*Session{a, b}, Glob("*alpha*"), Glob("*beta*"))
	if err != nil {
		t.Fatal(err)
	}
	loser := b
	if winner == b {
		loser = a
	}
	if winner.Buffer() != "" {
		t.Errorf("winner buffer not consumed: %q", winner.Buffer())
	}
	if loser.Buffer() == "" {
		t.Error("loser buffer consumed — buffering must be per-session (§8)")
	}
}

func TestExpectAnyCaseSelection(t *testing.T) {
	a := spawnSpeaker(t, "a", "only-here", 0)
	quiet, _ := spawnGated(t, "quiet", "")
	_, r, err := ExpectAny(2*time.Second, []*Session{quiet, a},
		Glob("*nothing*"), Glob("*only-here*"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Index != 1 {
		t.Errorf("case index = %d, want 1", r.Index)
	}
}

func TestExpectAnyTimeout(t *testing.T) {
	quiet, _ := spawnGated(t, "quiet", "")
	start := time.Now()
	_, _, err := ExpectAny(80*time.Millisecond, []*Session{quiet}, Glob("*x*"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) < 70*time.Millisecond {
		t.Error("returned too early")
	}
	// With an explicit timeout case it completes normally.
	_, r, err := ExpectAny(80*time.Millisecond, []*Session{quiet}, Glob("*x*"), TimeoutCase())
	if err != nil || !r.TimedOut {
		t.Errorf("timeout case: %v %+v", err, r)
	}
}

// waitWatched waits until a wait has registered its watcher on s.
func waitWatched(t *testing.T, s *Session) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := len(s.watchers)
		s.mu.Unlock()
		if n > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no wait registered on %s", s.Name())
}

// TestExpectAnyShowsInInfo: a fan-in wait shows on each member session
// the way a parked Expect does, one op with a remaining timeout inside
// the shared deadline, except on a member that has dropped out at EOF;
// on a scheduler the shard's parked-op gauge counts the same ops. Once
// the call returns no member shows it.
func TestExpectAnyShowsInInfo(t *testing.T) {
	for _, shards := range []int{0, 1} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			cfg := &Config{}
			gauge := func() int { return 0 }
			if shards > 0 {
				sc := NewScheduler(SchedulerOptions{Shards: shards})
				t.Cleanup(sc.Stop) // after the sessions' Close, which run first
				cfg.Sched = sc
				gauge = func() int {
					n := 0
					for _, sh := range sc.shards {
						n += sh.parkedOps()
					}
					return n
				}
			}
			gate := make(chan struct{})
			release := sync.OnceFunc(func() { close(gate) })
			t.Cleanup(release) // the gated program always unwinds
			spawn := func(name string, prog func(io.Reader, io.Writer) error) *Session {
				t.Helper()
				s, err := SpawnProgram(cfg, name, prog)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			}
			a := spawn("a", func(stdin io.Reader, stdout io.Writer) error {
				<-gate
				io.WriteString(stdout, "release\n")
				io.Copy(io.Discard, stdin)
				return nil
			})
			b := spawn("b", func(stdin io.Reader, _ io.Writer) error {
				io.Copy(io.Discard, stdin)
				return nil
			})
			gone := spawn("gone", func(io.Reader, io.Writer) error { return nil })
			gone.WaitPumpDrained()

			const d = 10 * time.Second
			members := []*Session{a, b, gone}
			type result struct {
				winner *Session
				err    error
			}
			done := make(chan result, 1)
			go func() {
				w, _, err := ExpectAny(d, members, Glob("*release*"))
				done <- result{w, err}
			}()
			for _, s := range members {
				waitWatched(t, s)
			}
			for _, s := range []*Session{a, b} {
				info := s.Info()
				if info.ParkedOps != 1 || info.RemainingTimeoutNS <= 0 || info.RemainingTimeoutNS > d.Nanoseconds() {
					t.Errorf("%s mid-wait: ParkedOps=%d RemainingTimeoutNS=%d; want 1 and (0, %d]",
						s.Name(), info.ParkedOps, info.RemainingTimeoutNS, d.Nanoseconds())
				}
			}
			if info := gone.Info(); info.ParkedOps != 0 || info.RemainingTimeoutNS != -1 {
				t.Errorf("member at EOF mid-wait: ParkedOps=%d RemainingTimeoutNS=%d; want 0 and -1",
					info.ParkedOps, info.RemainingTimeoutNS)
			}
			if want := 2 * shards; gauge() != want {
				t.Errorf("shard parked-op gauge mid-wait = %d, want %d", gauge(), want)
			}

			release()
			if r := <-done; r.err != nil || r.winner != a {
				t.Fatalf("ExpectAny = %v, %v; want a to win", r.winner, r.err)
			}
			for _, s := range members {
				if info := s.Info(); info.ParkedOps != 0 || info.RemainingTimeoutNS != -1 {
					t.Errorf("%s after the call: ParkedOps=%d RemainingTimeoutNS=%d; want 0 and -1",
						s.Name(), info.ParkedOps, info.RemainingTimeoutNS)
				}
			}
			if n := gauge(); n != 0 {
				t.Errorf("shard parked-op gauge after the call = %d, want 0", n)
			}
		})
	}
}

func TestExpectAnyAllEOF(t *testing.T) {
	a := spawnSpeaker(t, "a", "", 0)
	b := spawnSpeaker(t, "b", "", 0)
	a.Close()
	b.Close()
	a.WaitPumpDrained()
	b.WaitPumpDrained()
	_, _, err := ExpectAny(time.Second, []*Session{a, b}, Glob("*x*"))
	if !errors.Is(err, ErrEOF) {
		t.Fatalf("err = %v, want ErrEOF", err)
	}
	_, r, err := ExpectAny(time.Second, []*Session{a, b}, Glob("*x*"), EOFCase())
	if err != nil || !r.Eof {
		t.Errorf("eof case: %v %+v", err, r)
	}
}

func TestExpectAnyOneEOFOneLive(t *testing.T) {
	dead := spawnSpeaker(t, "dead", "", 0)
	dead.Close()
	dead.WaitPumpDrained()
	dead.ClearBuffer()
	live := spawnSpeaker(t, "live", "eventually", 100*time.Millisecond)
	winner, r, err := ExpectAny(2*time.Second, []*Session{dead, live}, Glob("*eventually*"))
	if err != nil {
		t.Fatalf("ExpectAny with one dead peer: %v", err)
	}
	if winner != live || !strings.Contains(r.Text, "eventually") {
		t.Errorf("winner=%v text=%q", winner.Name(), r.Text)
	}
}

// TestScriptExpectAny exercises the script-level combined expect/select:
// spawn_id follows the winner.
func TestScriptExpectAny(t *testing.T) {
	e, _ := newTestEngine(t)
	e.RegisterVirtual("fast", func(stdin io.Reader, stdout io.Writer) error {
		fmt.Fprintln(stdout, "from-fast")
		io.Copy(io.Discard, stdin)
		return nil
	})
	// Gated rather than sleep-delayed: "slow" must not have spoken when
	// expect_any runs, however loaded the machine is; cleanup releases it.
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	e.RegisterVirtual("slow", func(stdin io.Reader, stdout io.Writer) error {
		<-gate
		fmt.Fprintln(stdout, "from-slow")
		io.Copy(io.Discard, stdin)
		return nil
	})
	out, err := e.Run(`
		set timeout 5
		spawn slow
		set s $spawn_id
		spawn fast
		set f $spawn_id
		expect_any "$s $f" {*from-fast*} {set who fast} {*from-slow*} {set who slow}
		list $who [expr {$spawn_id == $f}]
	`)
	if err != nil {
		t.Fatalf("script: %v", err)
	}
	if out != "fast 1" {
		t.Errorf("result = %q, want 'fast 1' (winner selected and spawn_id switched)", out)
	}
}

// TestScriptExpectAnyMatchMax: expect_any applies the script's match_max
// to every session it waits on, as expect does to its one.
func TestScriptExpectAnyMatchMax(t *testing.T) {
	e, _ := newTestEngine(t)
	e.RegisterVirtual("talker", func(stdin io.Reader, stdout io.Writer) error {
		fmt.Fprintln(stdout, "hi")
		io.Copy(io.Discard, stdin)
		return nil
	})
	e.RegisterVirtual("quiet", func(stdin io.Reader, stdout io.Writer) error {
		io.Copy(io.Discard, stdin)
		return nil
	})
	if _, err := e.Run(`
		set timeout 5
		spawn quiet
		set q $spawn_id
		spawn talker
		set k $spawn_id
		set match_max 8
		expect_any "$q $k" {*hi*} {}
	`); err != nil {
		t.Fatalf("script: %v", err)
	}
	ids := e.SessionIDs()
	if len(ids) != 2 {
		t.Fatalf("live sessions %v, want 2", ids)
	}
	for _, id := range ids {
		s, _ := e.SessionByID(id)
		if got := s.MatchMax(); got != 8 {
			t.Errorf("spawn_id %d: match_max %d, want 8", id, got)
		}
	}
}

// journalKinds lists the kinds of one session's journaled events, and its
// match events.
func journalKinds(t *testing.T, jrn *trace.Journal, sid int32) (kinds []string, matches []trace.EventJSON) {
	t.Helper()
	events, err := trace.ParseJSONL(jrn.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.SID != sid {
			continue
		}
		kinds = append(kinds, ev.Kind)
		if ev.Kind == trace.KindMatch.String() {
			matches = append(matches, ev)
		}
	}
	return kinds, matches
}

func countKind(kinds []string, k trace.Kind) int {
	n := 0
	for _, got := range kinds {
		if got == k.String() {
			n++
		}
	}
	return n
}

// TestExpectAnyMembersObserved checks that a fan-in resolves through the
// expect path every Expect takes, one op per session: each member
// journals its expect and attempts, the winner journals and counts a
// match over its own buffer only, a member at EOF and a member live at
// the deadline record and count their verdicts, and under
// MatcherIncremental the members' globs match through their incremental
// matchers.
func TestExpectAnyMembersObserved(t *testing.T) {
	for name, m := range map[string]MatcherMode{"rescan": MatcherRescan, "incremental": MatcherIncremental} {
		t.Run(name, func(t *testing.T) {
			rec := trace.New(0)
			rec.SetRecording(true)
			jrn := trace.NewJournal()
			rec.SetJournal(jrn)
			member := func(sid int32) *Session {
				s := NewManualSession(&Config{Matcher: m, Rec: rec, SID: sid}, fmt.Sprintf("m%d", sid))
				t.Cleanup(func() { s.Close() })
				return s
			}
			a, b, c := member(1), member(2), member(3)

			a.Feed([]byte("xx"))
			b.Feed([]byte("hello"))
			winner, r, err := ExpectAny(5*time.Second, []*Session{a, b}, EOFCase(), Glob("*hello*"))
			if err != nil || winner != b || r.Index != 1 || r.Text != "hello" {
				t.Fatalf("match: winner=%v r=%+v err=%v", winner, r, err)
			}
			if a.Buffer() != "xx" || b.Buffer() != "" {
				t.Errorf("buffers a=%q b=%q, want only the winner's consumed", a.Buffer(), b.Buffer())
			}
			kinds, matches := journalKinds(t, jrn, 2)
			if countKind(kinds, trace.KindExpect) != 1 || countKind(kinds, trace.KindAttempt) == 0 ||
				len(matches) != 1 || matches[0].A != 0 || matches[0].B != int64(len("hello")) {
				t.Errorf("winner's journal %v, match events %+v: want its expect, attempts and a 5-byte match of its case 0", kinds, matches)
			}

			c.Feed([]byte("zz"))
			c.FeedEOF(nil)
			winner, r, err = ExpectAny(50*time.Millisecond, []*Session{a, c}, Glob("*never*"))
			var ee *ExpectError
			if winner != nil || r == nil || !r.TimedOut || !errors.Is(err, ErrTimeout) || !errors.As(err, &ee) || ee.Name != a.Name() {
				t.Fatalf("timeout: winner=%v r=%+v err=%v", winner, r, err)
			}
			if ee.BufferTail != "xx" || len(ee.Dump) == 0 {
				t.Errorf("timeout error carries tail %q and %d dump bytes, want xx and a dump", ee.BufferTail, len(ee.Dump))
			}
			if c.Buffer() != "zz" {
				t.Errorf("EOF member's buffer %q, want zz kept", c.Buffer())
			}
			kinds, _ = journalKinds(t, jrn, 1)
			if countKind(kinds, trace.KindExpect) != 2 || countKind(kinds, trace.KindAttempt) == 0 || countKind(kinds, trace.KindTimeout) != 1 {
				t.Errorf("loser-then-timeout member's journal %v, want two expects, attempts and one timeout", kinds)
			}
			kinds, _ = journalKinds(t, jrn, 3)
			if countKind(kinds, trace.KindExpect) != 1 || countKind(kinds, trace.KindAttempt) == 0 || countKind(kinds, trace.KindEOF) != 1 {
				t.Errorf("EOF member's journal %v, want its expect, attempts and one eof", kinds)
			}

			for _, tc := range []struct {
				s    *Session
				want [4]int64 // expects, matches, timeouts, eofs
			}{
				{a, [4]int64{2, 0, 1, 0}},
				{b, [4]int64{1, 1, 0, 0}},
				{c, [4]int64{1, 0, 0, 1}},
			} {
				in := tc.s.Info()
				if got := [4]int64{in.Expects, in.Matches, in.Timeouts, in.Eofs}; got != tc.want {
					t.Errorf("%s counters (expects, matches, timeouts, eofs) = %v, want %v", tc.s.Name(), got, tc.want)
				}
			}

			if m != MatcherIncremental {
				return
			}
			// "A" is forgotten (match_max 4) before "B" arrives: only a
			// matcher that saw the stream byte by byte, not a rescan of
			// the buffer, finds *AB*.
			d, quiet := member(4), member(5)
			d.SetMatchMax(4)
			d.Feed([]byte("xA"))
			fed := make(chan struct{})
			go func() {
				defer close(fed)
				for !hasAttempt(rec, 4) {
					time.Sleep(time.Millisecond)
				}
				d.Feed([]byte("Bzzz"))
			}()
			winner, r, err = ExpectAny(5*time.Second, []*Session{quiet, d}, Glob("*AB*"))
			<-fed
			if err != nil || winner != d || d.Buffer() != "" {
				t.Fatalf("incremental: winner=%v r=%+v err=%v buffer=%q", winner, r, err, d.Buffer())
			}
		})
	}
}

// hasAttempt reports whether session sid has made a pattern attempt.
func hasAttempt(rec *trace.Recorder, sid int32) bool {
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindAttempt && ev.SID == sid {
			return true
		}
	}
	return false
}
