package replay

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// journaledConfig arms a fresh recorder+journal on a session config.
func journaledConfig(t *testing.T) (*core.Config, *trace.Journal) {
	t.Helper()
	rec := trace.New(0)
	jrn := trace.NewJournal()
	rec.SetJournal(jrn)
	return &core.Config{Rec: rec, SID: 1}, jrn
}

func blockForever(stdin io.Reader) {
	io.Copy(io.Discard, stdin)
}

// runLoginDialogue drives a three-op prompt/response/EOF dialogue and
// returns its journal.
func runLoginDialogue(t *testing.T, cfg *core.Config, jrn *trace.Journal) []byte {
	t.Helper()
	s, err := core.SpawnProgram(cfg, "login-sim", func(stdin io.Reader, stdout io.Writer) error {
		io.WriteString(stdout, "login: ")
		line := make([]byte, 64)
		n, _ := stdin.Read(line)
		io.WriteString(stdout, "password: ")
		stdin.Read(line[:n])
		io.WriteString(stdout, "welcome!\r\n")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.ExpectTimeout(5*time.Second, core.Glob("*login: ")); err != nil {
		t.Fatal(err)
	}
	if err := s.Send("user\r"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExpectTimeout(5*time.Second, core.Exact("password: ")); err != nil {
		t.Fatal(err)
	}
	if err := s.Send("secret\r"); err != nil {
		t.Fatal(err)
	}
	r, err := s.ExpectTimeout(5*time.Second, core.Glob("*welcome*"), core.EOFCase())
	if err != nil {
		t.Fatal(err)
	}
	if r.Index != 0 {
		t.Fatalf("expected welcome match, got %+v", r)
	}
	// Drain to EOF so the journal carries the hangup too.
	if _, err := s.ExpectTimeout(5*time.Second, core.EOFCase()); err != nil {
		t.Fatal(err)
	}
	return jrn.Bytes()
}

func TestReplayCleanDialogue(t *testing.T) {
	cfg, jrn := journaledConfig(t)
	journal := runLoginDialogue(t, cfg, jrn)

	reports, err := RunJournal(journal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d reports", len(reports))
	}
	rep := reports[0]
	if !rep.Clean() {
		t.Fatalf("replay diverged: %s", rep)
	}
	if rep.Ops != 4 || rep.Writes != 2 {
		t.Fatalf("unexpected shape: %s", rep)
	}
	if rep.Compared == 0 {
		t.Fatal("nothing compared")
	}
	if rep.Unresolved {
		t.Fatal("dialogue fully resolved; report says unresolved")
	}
}

// The sharded scheduler and the classic pump must produce journals that
// replay equally clean.
func TestReplayShardedDialogue(t *testing.T) {
	cfg, jrn := journaledConfig(t)
	sched := core.NewScheduler(core.SchedulerOptions{Shards: 2})
	defer sched.Stop()
	cfg.Sched = sched
	journal := runLoginDialogue(t, cfg, jrn)

	reports, err := RunJournal(journal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || !reports[0].Clean() {
		t.Fatalf("sharded journal replay diverged: %v", reports)
	}
}

// A recorded 300ms timeout must replay on the virtual clock: same
// disposition, near-zero wall time.
func TestReplayTimeoutVirtualClock(t *testing.T) {
	cfg, jrn := journaledConfig(t)
	s, err := core.SpawnProgram(cfg, "slow", func(stdin io.Reader, stdout io.Writer) error {
		io.WriteString(stdout, "part")
		blockForever(stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.ExpectTimeout(300*time.Millisecond, core.Glob("*complete*"), core.TimeoutCase())
	if err != nil {
		t.Fatal(err)
	}
	if !r.TimedOut {
		t.Fatalf("want timeout, got %+v", r)
	}
	s.Close()
	journal := jrn.Bytes()

	start := time.Now()
	reports, err := RunJournal(journal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("replay waited the recorded timeout out: %v", elapsed)
	}
	if len(reports) != 1 || !reports[0].Clean() {
		t.Fatalf("timeout replay diverged: %v", reports)
	}
}

// An expect that fails with ErrTimeout (no timeout case) is a recorded
// disposition too; replay must reproduce it without reporting divergence.
func TestReplayTimeoutError(t *testing.T) {
	cfg, jrn := journaledConfig(t)
	s, err := core.SpawnProgram(cfg, "mute", func(stdin io.Reader, stdout io.Writer) error {
		blockForever(stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExpectTimeout(50*time.Millisecond, core.Glob("*never*")); err == nil {
		t.Fatal("want timeout error")
	}
	s.Close()

	reports, err := RunJournal(jrn.Bytes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || !reports[0].Clean() {
		t.Fatalf("replay diverged: %v", reports)
	}
}

// match_max trimming is part of the observable surface: a journaled
// overflow run must replay its forget events exactly.
func TestReplayMatchMaxOverflow(t *testing.T) {
	cfg, jrn := journaledConfig(t)
	s, err := core.SpawnProgram(cfg, "torrent", func(stdin io.Reader, stdout io.Writer) error {
		stdout.Write(bytes.Repeat([]byte{'a'}, 6000))
		io.WriteString(stdout, "MARKER")
		blockForever(stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetMatchMax(512)
	if _, err := s.ExpectTimeout(10*time.Second, core.Exact("MARKER")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	journal := jrn.Bytes()

	events, err := trace.ParseJSONL(journal)
	if err != nil {
		t.Fatal(err)
	}
	forgets := 0
	for _, e := range events {
		if e.Kind == trace.KindForget.String() {
			forgets++
		}
	}
	if forgets == 0 {
		t.Fatal("overflow run journaled no forget events")
	}
	reports, err := RunJournal(journal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || !reports[0].Clean() {
		t.Fatalf("overflow replay diverged: %v", reports)
	}
}

// Corrupting one journal event must be REPORTED by the replayer, never
// absorbed: a flipped read byte, a wrong match index, and a flipped
// attempt verdict each produce a divergence anchored at a seq.
func TestReplayMutationReported(t *testing.T) {
	cfg, jrn := journaledConfig(t)
	journal := runLoginDialogue(t, cfg, jrn)

	mutate := func(t *testing.T, f func(events []trace.EventJSON) bool) {
		t.Helper()
		events, err := trace.ParseJSONL(journal)
		if err != nil {
			t.Fatal(err)
		}
		if !f(events) {
			t.Fatal("mutation found no target event")
		}
		reports, err := RunJournal(trace.MarshalJSONL(events), Options{})
		if err != nil {
			// Structural rejection is also loud reporting.
			return
		}
		for _, rep := range reports {
			if !rep.Clean() {
				if rep.Divergences[0].Seq == 0 {
					t.Fatalf("divergence not anchored: %s", rep)
				}
				return
			}
		}
		t.Fatalf("mutation silently absorbed: %v", reports)
	}

	t.Run("read-payload-byte", func(t *testing.T) {
		mutate(t, func(events []trace.EventJSON) bool {
			for i := range events {
				if events[i].Kind == trace.KindRead.String() && len(events[i].Data) > 0 {
					events[i].Data[0] ^= 0x01
					return true
				}
			}
			return false
		})
	})
	t.Run("match-case-index", func(t *testing.T) {
		mutate(t, func(events []trace.EventJSON) bool {
			for i := range events {
				if events[i].Kind == trace.KindMatch.String() {
					events[i].A += 7
					return true
				}
			}
			return false
		})
	})
	t.Run("attempt-verdict", func(t *testing.T) {
		mutate(t, func(events []trace.EventJSON) bool {
			for i := range events {
				if events[i].Kind == trace.KindAttempt.String() && !events[i].OK {
					events[i].OK = true
					return true
				}
			}
			return false
		})
	})
	t.Run("dropped-read", func(t *testing.T) {
		mutate(t, func(events []trace.EventJSON) bool {
			for i := range events {
				if events[i].Kind == trace.KindRead.String() {
					copy(events[i:], events[i+1:])
					return true
				}
			}
			return false
		})
	})
}

// A ring-only dump (previews, no payloads) must be rejected as
// unreplayable, not silently replayed short.
func TestReplayRejectsRingDump(t *testing.T) {
	rec := trace.New(0)
	rec.SetRecording(true)
	cfg := &core.Config{Rec: rec, SID: 1}
	s, err := core.SpawnProgram(cfg, "p", func(stdin io.Reader, stdout io.Writer) error {
		io.WriteString(stdout, strings.Repeat("x", 300)+"done")
		blockForever(stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExpectTimeout(5*time.Second, core.Exact("done")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := RunJournal(rec.Dump(0), Options{}); err == nil {
		t.Fatal("ring dump accepted as a journal")
	}
}

// Replays are deterministic: replaying the same journal repeatedly yields
// byte-identical normalized observables.
func TestReplayIdempotent(t *testing.T) {
	cfg, jrn := journaledConfig(t)
	journal := runLoginDialogue(t, cfg, jrn)

	var prev []byte
	for i := 0; i < 3; i++ {
		reports, err := RunJournal(journal, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 1 || !reports[0].Clean() {
			t.Fatalf("round %d diverged: %v", i, reports)
		}
		events, err := trace.ParseJSONL(reports[0].ReplayJournal)
		if err != nil {
			t.Fatal(err)
		}
		norm, _ := Normalize(events, 1)
		b := trace.MarshalJSONL(norm)
		if prev != nil && !bytes.Equal(prev, b) {
			t.Fatalf("replay %d produced different observables", i)
		}
		prev = b
	}
}

// A fan-in journals one expect op per session. The first ExpectAny below
// leaves the silent session's op open (a loser, dropped unresolved) and
// the second times out on both, the shape of the conformance fan-in
// scenario: each session must replay clean with both of its ops.
func TestReplayFanInLoserThenTimeout(t *testing.T) {
	cfg, jrn := journaledConfig(t)
	silent, err := core.SpawnProgram(cfg, "silent", func(stdin io.Reader, stdout io.Writer) error {
		blockForever(stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	cfg2 := *cfg
	cfg2.SID = 2
	talker, err := core.SpawnProgram(&cfg2, "talker", func(stdin io.Reader, stdout io.Writer) error {
		io.WriteString(stdout, "ok ready\n")
		blockForever(stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer talker.Close()
	sessions := []*core.Session{silent, talker}
	winner, r, err := core.ExpectAny(5*time.Second, sessions, core.Exact("ready"), core.TimeoutCase())
	if err != nil || winner != talker || r.Index != 0 {
		t.Fatalf("fan-in: winner=%v r=%+v err=%v", winner, r, err)
	}
	winner, r, err = core.ExpectAny(50*time.Millisecond, sessions, core.Exact("never"), core.TimeoutCase())
	if err != nil || winner != nil || !r.TimedOut || r.Index != 1 {
		t.Fatalf("fan-in timeout: winner=%v r=%+v err=%v", winner, r, err)
	}

	reports, err := RunJournal(jrn.Bytes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("replayed %d sessions, want 2", len(reports))
	}
	for _, rep := range reports {
		if !rep.Clean() || rep.Ops != 2 || rep.Unresolved {
			t.Errorf("%s: want clean, 2 ops, last one resolved", rep)
		}
	}
}
