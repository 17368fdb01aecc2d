package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/faultify"
	"repro/internal/netx"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// promptProg is a minimal login-shaped dialogue partner: prompt, read a
// line, greet, then drain until EOF.
func promptProg(stdin io.Reader, stdout io.Writer) error {
	io.WriteString(stdout, "login: ")
	r := bufio.NewReader(stdin)
	for {
		b, err := r.ReadByte()
		if err != nil {
			return nil
		}
		if b == '\r' || b == '\n' {
			break
		}
	}
	io.WriteString(stdout, "Welcome!\r\n")
	io.Copy(io.Discard, r)
	return nil
}

func newLoopback(t *testing.T) *netx.Server {
	t.Helper()
	srv, err := netx.NewServer("127.0.0.1:0", promptProg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(5 * time.Second) })
	return srv
}

func quietEngine(t *testing.T, opt EngineOptions) *Engine {
	t.Helper()
	off := false
	opt.LogUser = &off
	opt.UserIn = strings.NewReader("")
	opt.UserOut = io.Discard
	eng := NewEngine(opt)
	t.Cleanup(eng.Shutdown)
	return eng
}

// TestSpawnNetworkScript drives the full script surface over a socket:
// spawn -network dials, expect/send run the dialogue, close hangs up.
func TestSpawnNetworkScript(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv := newLoopback(t)
	eng := quietEngine(t, EngineOptions{})

	script := fmt.Sprintf(`
set timeout 5
spawn -network %s
expect {*login:*} {} timeout {error "no prompt"}
send "don\r"
expect {*Welcome*} {} timeout {error "no greeting"}
close
`, srv.Addr())
	if _, err := eng.Run(script); err != nil {
		t.Fatalf("script: %v", err)
	}
}

// TestRegisterRemoteKeepsProgramName pins that a remote registration is
// spawned by program name (transcripts and traces stay in program terms)
// while dialing under the hood, and that the spawn is recorded with the
// network transport kind.
func TestRegisterRemoteKeepsProgramName(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv := newLoopback(t)
	eng := quietEngine(t, EngineOptions{})
	eng.RegisterRemote("login-sim", srv.Addr())

	if _, err := eng.Run(`
set timeout 5
spawn login-sim
expect {*login:*} {} timeout {error "no prompt"}
send "guest\r"
expect {*Welcome*} {} timeout {error "no greeting"}
close
`); err != nil {
		t.Fatalf("script: %v", err)
	}
	var spawned []trace.Event
	for _, ev := range eng.Recorder().Events() {
		if ev.Kind == trace.KindSpawn {
			spawned = append(spawned, ev)
		}
	}
	if len(spawned) != 1 {
		t.Fatalf("want 1 spawn event, got %d", len(spawned))
	}
	if got, kind := spawned[0].Text(), spawned[0].Aux(); got != "login-sim" || kind != "network" {
		t.Fatalf("spawn event = %q/%q; want login-sim/network", got, kind)
	}
}

// TestNetworkSessionSharded runs socket sessions under the sharded
// scheduler: the unwrapped netx transport is event-capable, so the shard
// loop owns it through the TryRead/SetReadNotify doorbell with no reader
// goroutine of its own.
func TestNetworkSessionSharded(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv := newLoopback(t)
	eng := quietEngine(t, EngineOptions{Shards: 4})

	for i := 0; i < 8; i++ {
		s, _, err := eng.SpawnRemote("", srv.Addr())
		if err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
		if !s.p.EventCapable() {
			t.Fatal("unwrapped socket transport should be event-capable")
		}
		if _, err := s.Expect(Exact("login: ")); err != nil {
			t.Fatalf("expect %d: %v", i, err)
		}
		if err := s.Send("don\r"); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, err := s.Expect(Exact("Welcome!")); err != nil {
			t.Fatalf("welcome %d: %v", i, err)
		}
		s.Close()
	}
}

// TestFaultifyComposesOverSocket replays a cut-after-bytes fault schedule
// on the client side of a socket session: the wrapper truncates the
// stream mid-dialogue and the engine sees a surprise EOF, exactly as it
// would on a virtual transport.
func TestFaultifyComposesOverSocket(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv := newLoopback(t)
	eng := quietEngine(t, EngineOptions{
		SpawnWrap: faultify.Wrapper(faultify.Schedule{Seed: 9, CutAfterBytes: 4}, nil),
	})

	s, _, err := eng.SpawnRemote("", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.Expect(Exact("login: "))
	if err == nil {
		t.Fatal("cut at 4 bytes should prevent the full prompt from matching")
	}
	var ee *ExpectError
	if !errors.As(err, &ee) || !errors.Is(err, ErrEOF) {
		t.Fatalf("want ExpectError wrapping ErrEOF, got %v", err)
	}
}
