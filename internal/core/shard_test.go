package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultify"
	"repro/internal/proc"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// echoLines is the canonical sharded-test child: one "echo:<line>" reply
// per newline-terminated line, exiting on stdin EOF.
func echoLines(stdin io.Reader, stdout io.Writer) error {
	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		fmt.Fprintf(stdout, "echo:%s\n", sc.Text())
	}
	return nil
}

// TestShardHashGolden pins the splitmix64 mapping: assignment stability
// across processes and releases is part of the scheduler contract (same
// spawn order → same shards), so the function must never drift.
func TestShardHashGolden(t *testing.T) {
	cases := []struct {
		key  uint64
		n    int
		want int
	}{
		{1, 8, 1},
		{2, 8, 6},
		{3, 8, 5},
		{100, 8, 4},
		{1, 2, 1},
		{2, 2, 0},
		{12345, 16, 0},
		{1 << 40, 7, 5},
		{18446744073709551615, 9, 8},
		// Degenerate shard counts all collapse to 0.
		{99, 1, 0},
		{99, 0, 0},
		{99, -3, 0},
	}
	for _, tc := range cases {
		if got := ShardHash(tc.key, tc.n); got != tc.want {
			t.Errorf("ShardHash(%d, %d) = %d, want %d", tc.key, tc.n, got, tc.want)
		}
	}
}

// TestShardHashDistribution checks sequential keys (the scheduler's
// allocation pattern) spread evenly: no shard may carry more than a
// modest excess over the fair share.
func TestShardHashDistribution(t *testing.T) {
	const n, keys = 8, 8000
	counts := make([]int, n)
	for k := uint64(1); k <= keys; k++ {
		counts[ShardHash(k, n)]++
	}
	fair := keys / n
	for i, c := range counts {
		if c < fair*8/10 || c > fair*12/10 {
			t.Errorf("shard %d holds %d of %d keys (fair %d ±20%%): %v", i, c, keys, fair, counts)
		}
	}
}

// FuzzShardHash asserts the two properties everything else builds on:
// the result is always a valid index, and the function is a pure
// function of (key, n).
func FuzzShardHash(f *testing.F) {
	f.Add(uint64(0), 1)
	f.Add(uint64(1), 8)
	f.Add(uint64(1<<63), 3)
	f.Add(uint64(18446744073709551615), 1024)
	f.Add(uint64(42), -5)
	f.Fuzz(func(t *testing.T, key uint64, n int) {
		got := ShardHash(key, n)
		if n <= 1 {
			if got != 0 {
				t.Fatalf("ShardHash(%d, %d) = %d, want 0", key, n, got)
			}
			return
		}
		if got < 0 || got >= n {
			t.Fatalf("ShardHash(%d, %d) = %d out of [0,%d)", key, n, got, n)
		}
		if again := ShardHash(key, n); again != got {
			t.Fatalf("ShardHash(%d, %d) nondeterministic: %d then %d", key, n, got, again)
		}
	})
}

// TestShardAssignmentStability churns sessions through spawn → dialogue →
// close → respawn on an 8-shard scheduler and asserts the ownership
// invariants: every session is registered by exactly one shard, that
// shard is the one its key hashes to, and the per-shard trace recorders
// never see one SID from two shards.
func TestShardAssignmentStability(t *testing.T) {
	recs := make([]*trace.Recorder, 8)
	sc := NewScheduler(SchedulerOptions{Shards: 8, Rec: func(i int) *trace.Recorder {
		recs[i] = trace.New(4096)
		recs[i].SetRecording(true)
		return recs[i]
	}})
	defer sc.Stop()

	var obMu sync.Mutex
	observed := make(map[*Session][]int)
	sc.observer = func(s *Session, shard int) {
		obMu.Lock()
		observed[s] = append(observed[s], shard)
		obMu.Unlock()
	}

	spawnOne := func(sid int) *Session {
		t.Helper()
		s, err := SpawnProgram(&Config{Sched: sc, SID: int32(sid)},
			fmt.Sprintf("echo-%d", sid), echoLines)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	dialogue := func(s *Session, i int) {
		t.Helper()
		if err := s.Send(fmt.Sprintf("m%d\n", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ExpectTimeout(5*time.Second, Exact(fmt.Sprintf("echo:m%d\n", i))); err != nil {
			t.Fatalf("sid %d: %v", i, err)
		}
	}
	closeOne := func(s *Session) {
		t.Helper()
		s.Close()
		s.WaitPumpDrained()
	}

	// Three generations of spawn/close/respawn with distinct SIDs.
	sid := 0
	var all []*Session
	for gen := 0; gen < 3; gen++ {
		var live []*Session
		for i := 0; i < 20; i++ {
			s := spawnOne(sid)
			dialogue(s, sid)
			live = append(live, s)
			all = append(all, s)
			sid++
		}
		for _, s := range live {
			closeOne(s)
		}
	}

	obMu.Lock()
	defer obMu.Unlock()
	if len(observed) != len(all) {
		t.Fatalf("observed %d sessions, spawned %d", len(observed), len(all))
	}
	for _, s := range all {
		shards := observed[s]
		if len(shards) != 1 {
			t.Fatalf("session %s observed by shards %v, want exactly one", s.Name(), shards)
		}
		if want := ShardHash(s.shardKey, 8); shards[0] != want {
			t.Errorf("session %s on shard %d, key %d hashes to %d", s.Name(), shards[0], s.shardKey, want)
		}
		if s.ShardIndex() != shards[0] {
			t.Errorf("session %s ShardIndex()=%d, observed %d", s.Name(), s.ShardIndex(), shards[0])
		}
	}

	// Trace SIDs stay unique to one shard: no recorder shares a SID with
	// another recorder's stream.
	sidShard := make(map[int32]int)
	for i, rec := range recs {
		events, err := trace.ParseJSONL(rec.Dump(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if prev, ok := sidShard[ev.SID]; ok && prev != i {
				t.Fatalf("SID %d recorded by shard %d and shard %d", ev.SID, prev, i)
			}
			sidShard[ev.SID] = i
		}
	}
	if len(sidShard) != len(all) {
		t.Errorf("per-shard recorders saw %d distinct SIDs, want %d", len(sidShard), len(all))
	}
}

// TestShardedEOFBeforeExpectResolves is the missed-wakeup regression for
// the admission path: the child speaks a partial pattern and exits before
// the first Expect is even issued. Without the caller's attempt in the
// critical section that parks the op (and adopt's initial doorbell) the
// op would park forever, since no further ingest event will ever arrive
// for this session.
func TestShardedEOFBeforeExpectResolves(t *testing.T) {
	sc := NewScheduler(SchedulerOptions{Shards: 2})
	defer sc.Stop()
	s, err := SpawnProgram(&Config{Sched: sc}, "dier", func(stdin io.Reader, stdout io.Writer) error {
		io.WriteString(stdout, "par") // partial pattern, then gone
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Let the shard ingest the output and the EOF before the expect exists.
	s.WaitPumpDrained()

	start := time.Now()
	m, err := s.ExpectTimeout(10*time.Second, Exact("partial-never-completes"), EOFCase())
	if err != nil {
		t.Fatalf("expect: %v", err)
	}
	if !m.Eof || m.Text != "par" {
		t.Fatalf("got %+v, want EOF case with buffered text \"par\"", m)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("EOF resolution took %v — waiter was stranded", elapsed)
	}
}

// TestShardedFanInCutChildNoHang is the select.go fan-in regression: two
// sharded sessions, one of which dies mid-dialogue under a faultify
// CutAfterBytes schedule (EOF with a partial pattern buffered). Select
// must report the dead session readable promptly, and the follow-up
// Expect must resolve its EOF — a missed wakeup would ride out the full
// deadline instead.
func TestShardedFanInCutChildNoHang(t *testing.T) {
	sc := NewScheduler(SchedulerOptions{Shards: 2})
	defer sc.Stop()

	quiet, err := SpawnProgram(&Config{Sched: sc}, "quiet", func(stdin io.Reader, stdout io.Writer) error {
		io.Copy(io.Discard, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()

	// The cut transport delivers 5 bytes of "echo:hello\n" and then EOFs
	// forever: the child exits, from the engine's point of view, between
	// the attempt and the wait. The wrapper also makes the transport
	// non-event-capable, so the session keeps its pump beside a sharded
	// one.
	sched := faultify.Schedule{Seed: 7, CutAfterBytes: 5}
	cut, err := SpawnProgram(&Config{
		Sched:        sc,
		SpawnOptions: proc.Options{WrapTransport: faultify.Wrapper(sched, nil)},
	}, "cut-echo", echoLines)
	if err != nil {
		t.Fatal(err)
	}
	defer cut.Close()

	if err := cut.Send("hello\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ready := Select(8*time.Second, quiet, cut)
	if len(ready) != 1 || ready[0] != cut {
		t.Fatalf("Select returned %v, want just the cut session", ready)
	}
	m, err := cut.ExpectTimeout(8*time.Second, Exact("echo:hello\n"), EOFCase())
	if err != nil {
		t.Fatalf("expect after cut: %v", err)
	}
	if !m.Eof {
		t.Fatalf("got %+v, want the EOF case", m)
	}
	if m.Text != "echo:" {
		t.Fatalf("buffered text %q, want the 5 delivered bytes \"echo:\"", m.Text)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("fan-in EOF took %v — wakeup was missed", elapsed)
	}
}

// TestShardedPipeSessionResolvesParkedExpect runs a real pipe transport
// spawned with Config.Sched: a shard cannot drain a pipe without
// blocking, so the session keeps its pump; an Expect parks on the
// session, and the chunk the pump reads later resolves it.
func TestShardedPipeSessionResolvesParkedExpect(t *testing.T) {
	sc := NewScheduler(SchedulerOptions{Shards: 2})
	defer sc.Stop()
	s, err := SpawnPipeCommand(&Config{Sched: sc}, "cat")
	if err != nil {
		t.Skipf("cannot spawn cat: %v", err)
	}
	defer s.Close()
	if s.ShardIndex() != -1 {
		t.Fatalf("pipe session on shard %d, want its own pump (-1)", s.ShardIndex())
	}
	type outcome struct {
		res *MatchResult
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := s.ExpectTimeout(10*time.Second, Glob("*hello-echo*"))
		resCh <- outcome{res, err}
	}()
	waitParked(t, s)
	if err := s.Send("hello-echo\n"); err != nil {
		t.Fatal(err)
	}
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !strings.Contains(out.res.Text, "hello-echo") {
		t.Fatalf("matched %q", out.res.Text)
	}
}

// TestShardedExpectAny drives the combined expect/select across sessions
// owned by different shards.
func TestShardedExpectAny(t *testing.T) {
	sc := NewScheduler(SchedulerOptions{Shards: 4})
	defer sc.Stop()
	var sessions []*Session
	for i := 0; i < 4; i++ {
		s, err := SpawnProgram(&Config{Sched: sc}, fmt.Sprintf("e%d", i), echoLines)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sessions = append(sessions, s)
	}
	if err := sessions[2].Send("winner\n"); err != nil {
		t.Fatal(err)
	}
	s, m, err := ExpectAny(5*time.Second, sessions, Exact("echo:winner\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s != sessions[2] || m.Index != 0 {
		t.Fatalf("ExpectAny picked %v idx %d, want sessions[2] idx 0", s, m.Index)
	}
}

// TestShardedChurnDoesNotLeakGoroutines is the scheduler counterpart of
// the pump-churn leak test: sessions come and go, shard loops stay, and
// nothing accumulates.
func TestShardedChurnDoesNotLeakGoroutines(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	sc := NewScheduler(SchedulerOptions{Shards: 4})
	const churn = 200
	for i := 0; i < churn; i++ {
		s, err := SpawnProgram(&Config{Sched: sc}, fmt.Sprintf("p%d", i), echoLines)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send("x\n"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ExpectTimeout(5*time.Second, Exact("echo:x\n")); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s.WaitPumpDrained()
	}
	sc.Stop()
	if d := sc.Dropped(); d != 0 {
		t.Errorf("dropped %d events during clean churn", d)
	}
}

// TestSchedulerStopFailsLateExpect pins the shutdown contract: once the
// loops are gone, a straggling Expect gets an error instead of hanging.
// A session that reached EOF first answers from its buffer; one its
// shard abandoned at the drain deadline fails its parked op with
// ErrClosed (counted in Dropped) and any later Expect at once.
func TestSchedulerStopFailsLateExpect(t *testing.T) {
	sc := NewScheduler(SchedulerOptions{Shards: 1})
	s, err := SpawnProgram(&Config{Sched: sc}, "late", echoLines)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.WaitPumpDrained()
	mute, err := SpawnProgram(&Config{Sched: sc}, "mute", func(stdin io.Reader, stdout io.Writer) error {
		io.Copy(io.Discard, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	parked := make(chan error, 1)
	go func() {
		_, err := mute.ExpectTimeout(time.Minute, Exact("never"))
		parked <- err
	}()
	waitParked(t, mute)
	sc.Stop() // mute never hangs up: the loop exits at the drain deadline
	select {
	case err := <-parked:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked expect at forced exit: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked expect outlived the forced exit")
	}
	if d := sc.Dropped(); d != 1 {
		t.Errorf("Dropped() = %d after failing one parked expect, want 1", d)
	}

	for _, late := range []*Session{s, mute} {
		done := make(chan error, 1)
		go func() {
			_, err := late.ExpectTimeout(time.Minute, Exact("never"))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("%s: want an error from post-Stop expect", late.Name())
			}
			if late == mute && !errors.Is(err, ErrClosed) {
				t.Fatalf("abandoned session: %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: post-Stop expect hung", late.Name())
		}
	}
}

// TestSchedulerStopRacingSpawn pins adopt against Stop: a spawn that races
// the scheduler's shutdown is either registered before the loop drains or
// falls back to a pump goroutine, so its session always drains. A
// registration posted after the loop's last look at its queue would
// strand the session, and WaitPumpDrained would never return.
func TestSchedulerStopRacingSpawn(t *testing.T) {
	const iterations = 3000
	for i := 0; i < iterations; i++ {
		sc := NewScheduler(SchedulerOptions{Shards: 1})
		stopped := make(chan struct{})
		go func() {
			sc.Stop()
			close(stopped)
		}()
		s, err := SpawnProgram(&Config{Sched: sc}, "racer", echoLines)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		drained := make(chan struct{})
		go func() {
			s.WaitPumpDrained()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: a session spawned while Stop ran never drained", i)
		}
		select {
		case <-stopped:
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: Stop never returned", i)
		}
	}
}
