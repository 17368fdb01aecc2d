package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestSessionInfoLifecycle walks one pump-driven session through its
// states and checks the snapshot at each stop: open → eof → closed, with
// the dialogue counters advancing by the conservation law.
func TestSessionInfoLifecycle(t *testing.T) {
	s, err := SpawnProgram(&Config{}, "echo", echoLines)
	if err != nil {
		t.Fatal(err)
	}
	info := s.Info()
	if info.State != "open" || info.Shard != -1 {
		t.Errorf("fresh session: state=%q shard=%d, want open/-1", info.State, info.Shard)
	}
	if info.Expects != 0 || info.RemainingTimeoutNS != -1 {
		t.Errorf("fresh session: expects=%d remaining=%d", info.Expects, info.RemainingTimeoutNS)
	}
	if info.Name != "echo" {
		t.Errorf("Name = %q", info.Name)
	}

	// One match dialogue.
	s.Send("hi\n")
	if _, err := s.ExpectTimeout(5*time.Second, Exact("echo:hi\n")); err != nil {
		t.Fatal(err)
	}
	// One timeout dialogue.
	res, err := s.ExpectTimeout(5*time.Millisecond, Exact("never"), TimeoutCase())
	if err != nil || !res.TimedOut {
		t.Fatalf("timeout dialogue: res=%+v err=%v", res, err)
	}
	// One EOF dialogue.
	s.CloseWrite()
	res, err = s.ExpectTimeout(5*time.Second, Exact("never"), EOFCase())
	if err != nil || !res.Eof {
		t.Fatalf("eof dialogue: res=%+v err=%v", res, err)
	}

	info = s.Info()
	if info.Expects != 3 || info.Matches != 1 || info.Timeouts != 1 || info.Eofs != 1 {
		t.Errorf("counters after 3 dialogues: %+v", info)
	}
	if info.Matches+info.Timeouts+info.Eofs != info.Expects {
		t.Errorf("conservation law broken: %+v", info)
	}
	if info.State != "eof" {
		t.Errorf("state after EOF = %q", info.State)
	}
	if info.TotalSeen == 0 {
		t.Error("TotalSeen = 0 after a match")
	}

	s.Close()
	if got := s.Info().State; got != "closed" {
		t.Errorf("state after Close = %q", got)
	}
}

// parkedRows are the three kinds of session a parked Expect must be
// visible on, each spawned through an engine with SID 0: a pump session
// with no scheduler, a virtual session on a one-shard scheduler, and a
// cat pipe session spawned with Config.Sched (which keeps its pump).
// Each child echoes what it is sent.
var parkedRows = []struct {
	name  string
	opt   EngineOptions
	prog  string
	shard bool // the session is shard-owned
}{
	{name: "pump", prog: "echo"},
	{name: "shard1", opt: EngineOptions{Shards: 1}, prog: "echo", shard: true},
	{name: "pipe-sched", opt: EngineOptions{Shards: 1, Transport: "pipe"}, prog: "cat"},
}

// spawnParkedRow starts one parkedRows session and returns it with its
// engine; the test shuts the engine down.
func spawnParkedRow(t *testing.T, i int) (*Engine, *Session) {
	t.Helper()
	row := parkedRows[i]
	logUser := false
	row.opt.LogUser = &logUser
	e := NewEngine(row.opt)
	e.RegisterVirtual("echo", echoLines)
	s, _, err := e.Spawn(row.prog)
	if err != nil {
		e.Shutdown()
		t.Skipf("cannot spawn %s: %v", row.prog, err)
	}
	if got := s.ShardIndex() >= 0; got != row.shard {
		t.Fatalf("shard-owned = %v, want %v", got, row.shard)
	}
	return e, s
}

// TestShardSnapshotSeesParkedOp parks an expect on each kind of session
// and checks every snapshot reports it: Session.Info, the engine's
// SessionInfos, the scheduler's rollup for a shard-owned session, and a
// remaining timeout between zero and the armed deadline.
func TestShardSnapshotSeesParkedOp(t *testing.T) {
	for i, row := range parkedRows {
		t.Run(row.name, func(t *testing.T) {
			e, s := spawnParkedRow(t, i)
			defer e.Shutdown()

			const armed = 10 * time.Second
			done := make(chan error, 1)
			go func() {
				_, err := s.ExpectTimeout(armed, Glob("*release*"))
				done <- err
			}()
			waitParked(t, s)

			got := s.Info()
			if got.ParkedOps != 1 {
				t.Errorf("Info().ParkedOps = %d, want 1", got.ParkedOps)
			}
			if got.RemainingTimeoutNS <= 0 || got.RemainingTimeoutNS > armed.Nanoseconds() {
				t.Errorf("remaining timeout %d outside (0, %d]", got.RemainingTimeoutNS, armed.Nanoseconds())
			}
			if got.Expects != 1 {
				t.Errorf("Expects = %d while parked, want 1", got.Expects)
			}
			if got.Name != row.prog {
				t.Errorf("snapshot identity: %+v", got)
			}
			infos := e.SessionInfos()
			if len(infos) != 1 || infos[0].ParkedOps != 1 || infos[0].Shard != s.ShardIndex() {
				t.Errorf("engine SessionInfos = %+v, want the one parked session", infos)
			}
			// The shard-level rollup agrees with the per-session view.
			var parked, owned int
			for _, snap := range e.Scheduler().SnapshotShards() {
				parked += snap.ParkedOps
				owned += len(snap.Sessions)
			}
			if want := map[bool]int{true: 1}[row.shard]; parked != want || owned != want {
				t.Errorf("shard rollup: %d sessions, %d parked ops; want %d of each", owned, parked, want)
			}

			s.Send("release\n")
			if err := <-done; err != nil {
				t.Fatalf("parked expect: %v", err)
			}
			if n := s.Info().ParkedOps; n != 0 {
				t.Errorf("ParkedOps = %d after the op resolved", n)
			}
		})
	}
}

// TestSnapshotAfterStopDoesNotHang pins the drain contract: a scraper
// that races Scheduler.Stop gets empty snapshots, never a hang.
func TestSnapshotAfterStopDoesNotHang(t *testing.T) {
	sc := NewScheduler(SchedulerOptions{Shards: 4})
	sc.Stop()
	ch := make(chan []ShardSnapshot, 1)
	go func() { ch <- sc.SnapshotShards() }()
	select {
	case snaps := <-ch:
		if len(snaps) != 4 {
			t.Fatalf("got %d snapshots, want 4", len(snaps))
		}
		for _, snap := range snaps {
			if len(snap.Sessions) != 0 || snap.ParkedOps != 0 {
				t.Errorf("stopped shard %d reports live state: %+v", snap.Shard, snap)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SnapshotShards hung on a stopped scheduler")
	}
}

// TestSchedulerWakeupHistogram checks the per-shard wakeup clocks feed
// both ShardWakeups (for the registry) and the snapshot's digest.
func TestSchedulerWakeupHistogram(t *testing.T) {
	sc := NewScheduler(SchedulerOptions{Shards: 2})
	defer sc.Stop()
	s, err := SpawnProgram(&Config{Sched: sc, SID: 5}, "w", echoLines)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Send("ping\n")
	if _, err := s.ExpectTimeout(5*time.Second, Exact("echo:ping\n")); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, h := range sc.ShardWakeups() {
		total += h.Count()
	}
	if total == 0 {
		t.Error("no wakeup observations after a served dialogue")
	}
}

// TestEngineRegisterMetricsRenders is the smoke seam expectd and goexpect
// -stats share: an engine's registry renders a parseable exposition with
// the session and shard families present.
func TestEngineRegisterMetricsRenders(t *testing.T) {
	logUser := false
	eng := NewEngine(EngineOptions{Transport: "pipe", Shards: 2, LogUser: &logUser})
	defer eng.Shutdown()
	reg := metrics.NewRegistry()
	eng.RegisterMetrics(reg)
	out := string(reg.RenderPrometheus())
	for _, want := range []string{
		"# TYPE expect_sessions_live gauge",
		"# TYPE expect_spawns_total counter",
		"# TYPE expect_shard_queue_depth gauge",
		"# TYPE expect_shard_wakeup_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if infos := eng.SessionInfos(); len(infos) != 0 {
		t.Errorf("fresh engine reports %d sessions", len(infos))
	}
}
