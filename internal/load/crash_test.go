package load

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netx"
	"repro/internal/testutil"
)

// This file is the crash/recovery battery: prove that a soak survives
// losing the expectd daemon. The client checkpoints every session at a
// seeded point, the daemon is SIGKILLed (no drain, no goodbye), a fresh
// daemon comes up, and every session is restored from its checkpoint
// against a new connection — including expects that were parked when the
// lights went out. The dialogue conservation law must hold across the
// crash with zero lost dialogues.

// expectdBin builds cmd/expectd once per test binary; every test in this
// file shares the artifact.
var expectdBin struct {
	once sync.Once
	path string
	err  error
}

func buildExpectd(t *testing.T) string {
	t.Helper()
	expectdBin.once.Do(func() {
		tmp, err := os.MkdirTemp("", "crash-expectd-")
		if err != nil {
			expectdBin.err = err
			return
		}
		bin := filepath.Join(tmp, "expectd")
		build := exec.Command("go", "build", "-o", bin, "repro/cmd/expectd")
		build.Dir = "../.."
		if out, err := build.CombinedOutput(); err != nil {
			expectdBin.err = fmt.Errorf("build expectd: %v\n%s", err, out)
			return
		}
		expectdBin.path = bin
	})
	if expectdBin.err != nil {
		t.Fatal(expectdBin.err)
	}
	return expectdBin.path
}

// crashDaemon is one expectd incarnation under test control. Unlike the
// E18 harness it records every stdout line from the first (the -restore
// report prints before "ready") and stays scanning for the lifetime of
// the process, so tests can wait on any marker the daemon or its drive
// script emits.
type crashDaemon struct {
	t        *testing.T
	cmd      *exec.Cmd
	addrs    map[string]string
	mu       sync.Mutex
	lines    []string
	scanDone chan struct{}
}

func startDaemon(t *testing.T, args ...string) *crashDaemon {
	t.Helper()
	bin := buildExpectd(t)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start expectd: %v", err)
	}
	d := &crashDaemon{t: t, cmd: cmd, addrs: map[string]string{}, scanDone: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(d.scanDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.lines = append(d.lines, line)
			d.mu.Unlock()
			var name, addr string
			if _, err := fmt.Sscanf(line, "expectd: serving %s on %s", &name, &addr); err == nil {
				d.addrs[name] = addr
				continue
			}
			// The session gateway advertises itself under the reserved
			// name "mux" (program names never collide with it: the
			// registry has no program called mux).
			if _, err := fmt.Sscanf(line, "expectd: mux on %s", &addr); err == nil {
				d.addrs["mux"] = addr
				continue
			}
			if line == "expectd: ready" {
				close(ready)
			}
		}
	}()
	select {
	case <-ready:
	case <-d.scanDone:
		d.kill()
		t.Fatalf("expectd exited before ready:\n%s", d.joined())
	case <-time.After(30 * time.Second):
		d.kill()
		t.Fatal("expectd never became ready")
	}
	return d
}

func (d *crashDaemon) joined() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.lines, "\n")
}

// waitLine blocks until some stdout line contains want.
func (d *crashDaemon) waitLine(want string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if strings.Contains(d.joined(), want) {
			return true
		}
		select {
		case <-d.scanDone:
			return strings.Contains(d.joined(), want)
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// kill is the crash: SIGKILL, no drain, no checkpoint of its own.
func (d *crashDaemon) kill() {
	d.cmd.Process.Kill()
	<-d.scanDone
	d.cmd.Wait()
}

// stop SIGTERMs the daemon and requires the clean-drain exit.
func (d *crashDaemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.scanDone:
	case <-time.After(90 * time.Second):
		d.kill()
		return fmt.Errorf("expectd did not exit within 90s of SIGTERM\n%s", d.joined())
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("expectd exited dirty: %v\n%s", err, d.joined())
	}
	if !strings.Contains(d.joined(), "drained clean") {
		return fmt.Errorf("expectd exited 0 without the drained-clean report:\n%s", d.joined())
	}
	return nil
}

// crashDialogue is the battery's dialogue step — same shape as the
// workbench worker's, scored on the shared counters.
func crashDialogue(s *core.Session, tall *counters, kind string, n int) {
	tall.dialogues.Add(1)
	var (
		deadline time.Duration
		pattern  string
	)
	switch kind {
	case "match":
		pattern = fmt.Sprintf("m%d", n)
		s.Send(pattern + "\n")
		deadline = 30 * time.Second
	case "timeout":
		pattern = "pattern-that-never-arrives"
		deadline = 2 * time.Millisecond
	case "eof":
		s.Send("quit\n")
		pattern = "pattern-that-never-arrives"
		deadline = 30 * time.Second
	}
	res, err := s.ExpectTimeout(deadline,
		core.Exact("echo:"+pattern+"\n"), core.TimeoutCase(), core.EOFCase())
	switch {
	case err != nil:
		tall.errors.Add(1)
	case res.Eof:
		tall.eofs.Add(1)
	case res.TimedOut:
		tall.timeouts.Add(1)
	default:
		tall.matches.Add(1)
	}
}

// TestCrashRecoverySoak is ISSUE 7's crash-mid-soak acceptance run:
// ≥2k socket sessions checkpoint at a seeded point, the daemon is
// SIGKILLed, and every session restores from its checkpoint file against
// a fresh daemon with zero lost dialogues — matches+timeouts+EOFs must
// equal dialogues exactly, errors must be zero. A 16-session cohort
// crashes with an expect op parked mid-flight; the checkpoint carries the
// pending op and the restored session resumes it (ResumeExpect) to a
// real match on the new connection, which is the "zero lost" heart: a
// dialogue that straddles the crash still scores exactly once.
func TestCrashRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("crash battery: skipped under -short")
	}
	defer testutil.LeakCheck(t, 25, 20*time.Second)()

	const (
		sessions = 2048
		cohort   = 16 // sessions that crash with a parked expect
		shards   = 8
		seed     = 1990
	)

	// The seeded point: every worker's pre-crash and post-restore dialogue
	// schedule is drawn from one seeded stream, so the crash lands at the
	// same dialogue boundary on every run.
	rng := rand.New(rand.NewSource(seed))
	pre := make([]int, sessions)
	post := make([]int, sessions)
	kinds := make([][]string, sessions)
	var expected int64
	for i := range pre {
		pre[i] = 1 + rng.Intn(2)
		post[i] = 1 + rng.Intn(2)
		for n := 0; n < pre[i]+post[i]; n++ {
			k := "match"
			if rng.Intn(8) == 0 {
				k = "timeout"
			}
			kinds[i] = append(kinds[i], k)
		}
		if i%37 == 0 {
			kinds[i][len(kinds[i])-1] = "eof" // a few sessions end on a clean EOF
		}
		expected += int64(pre[i] + post[i])
		if i < cohort {
			expected++ // the crash-straddling resume dialogue
		}
	}

	d := startDaemon(t, "-serve", "echo", "-grace", "60s")
	echoAddr := d.addrs["echo"]
	if echoAddr == "" {
		t.Fatalf("daemon did not advertise echo: %v", d.addrs)
	}

	sc := core.NewScheduler(core.SchedulerOptions{Shards: shards})
	prof := metrics.NewProfiler()
	tall := &counters{}
	live := make([]*core.Session, sessions)

	// Phase 1: spawn everything over sockets and run the pre-crash slice
	// of each schedule; the cohort then parks a long expect that will be
	// mid-flight when the daemon dies.
	var wg sync.WaitGroup
	spawnErr := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := &core.Config{Sched: sc, SID: int32(i + 1), Prof: prof}
			s, err := core.SpawnNetwork(cfg, fmt.Sprintf("crash-%d", i), echoAddr)
			if err != nil {
				spawnErr <- fmt.Errorf("spawn %d: %w", i, err)
				return
			}
			live[i] = s
			for n := 0; n < pre[i]; n++ {
				crashDialogue(s, tall, kinds[i][n], n)
			}
			if i < cohort {
				// The dialogue is scored here, once; the in-flight op's own
				// outcome is discarded (it dies with the daemon) and the
				// checkpointed copy finishes it after restore.
				tall.dialogues.Add(1)
				go s.ExpectTimeout(10*time.Minute,
					core.Exact(fmt.Sprintf("echo:resume-%d\n", i)), core.EOFCase())
			}
		}(i)
	}
	wg.Wait()
	close(spawnErr)
	for err := range spawnErr {
		t.Fatal(err)
	}

	// Wait until every cohort op is actually parked on its session — the
	// session's checkpoint, taken under its lock, is the honest witness.
	for i := 0; i < cohort; i++ {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if cp := live[i].Checkpoint(); len(cp.Pending) > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %d never parked its resume expect", i)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Checkpoint all 2k sessions to durable files — what a production
	// supervisor would flush before restarting anything.
	ckptDir := t.TempDir()
	ckptFile := func(i int) string { return filepath.Join(ckptDir, fmt.Sprintf("sess-%04d.json", i)) }
	for i, s := range live {
		cp := s.Checkpoint()
		if i < cohort && len(cp.Pending) != 1 {
			t.Fatalf("session %d checkpoint carries %d pending ops, want 1", i, len(cp.Pending))
		}
		if err := os.WriteFile(ckptFile(i), cp.Marshal(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The crash: SIGKILL, mid-soak, cohort expects still in flight.
	d.kill()

	// The dead daemon's connections come apart; the old incarnations are
	// garbage now. Their in-flight ops resolve as EOFs nobody reads.
	for _, s := range live {
		s.Close()
		s.WaitPumpDrained()
	}
	sc.Stop()

	// Recovery: fresh daemon, fresh connections, sessions rebuilt from
	// their checkpoint files.
	d2 := startDaemon(t, "-serve", "echo", "-grace", "60s")
	echoAddr2 := d2.addrs["echo"]

	restoreErr := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := os.ReadFile(ckptFile(i))
			if err != nil {
				restoreErr <- err
				return
			}
			cp, err := core.ParseSessionCheckpoint(b)
			if err != nil {
				restoreErr <- fmt.Errorf("parse checkpoint %d: %w", i, err)
				return
			}
			conn, err := net.Dial("tcp", echoAddr2)
			if err != nil {
				restoreErr <- fmt.Errorf("redial %d: %w", i, err)
				return
			}
			s, err := core.RestoreSession(&core.Config{Prof: prof}, cp, conn)
			if err != nil {
				conn.Close()
				restoreErr <- fmt.Errorf("restore %d: %w", i, err)
				return
			}
			defer func() {
				s.Close()
				s.WaitPumpDrained()
			}()
			if got := s.TotalSeen(); got != cp.TotalSeen {
				restoreErr <- fmt.Errorf("session %d: restored TotalSeen %d, checkpoint says %d", i, got, cp.TotalSeen)
				return
			}
			if i < cohort {
				// Resume the op that was parked when the daemon died, then
				// provoke the reply it was waiting for.
				res := make(chan *core.MatchResult, 1)
				resErr := make(chan error, 1)
				go func() {
					r, err := s.ResumeExpect(cp.Pending[0])
					if err != nil {
						resErr <- err
						return
					}
					res <- r
				}()
				s.Send(fmt.Sprintf("resume-%d\n", i))
				select {
				case r := <-res:
					if r.Eof || r.TimedOut {
						restoreErr <- fmt.Errorf("session %d: resumed expect resolved %+v, want match", i, r)
						return
					}
					tall.matches.Add(1)
				case err := <-resErr:
					restoreErr <- fmt.Errorf("session %d: resumed expect: %w", i, err)
					return
				case <-time.After(30 * time.Second):
					restoreErr <- fmt.Errorf("session %d: resumed expect never resolved", i)
					return
				}
			}
			for n := 0; n < post[i]; n++ {
				crashDialogue(s, tall, kinds[i][pre[i]+n], pre[i]+n)
			}
		}(i)
	}
	wg.Wait()
	close(restoreErr)
	for err := range restoreErr {
		t.Error(err)
	}
	if t.Failed() {
		d2.kill()
		t.FailNow()
	}

	// The surviving daemon must still drain clean: every restored session
	// hung up tidily.
	if err := d2.stop(); err != nil {
		t.Error(err)
	}

	dialogues := tall.dialogues.Load()
	matches, timeouts := tall.matches.Load(), tall.timeouts.Load()
	eofs, errs := tall.eofs.Load(), tall.errors.Load()
	t.Logf("crash battery: %d dialogues across the crash: %d matches %d timeouts %d EOFs %d errors",
		dialogues, matches, timeouts, eofs, errs)
	if errs != 0 {
		t.Errorf("%d dialogue errors across the crash", errs)
	}
	if dialogues != expected {
		t.Errorf("lost dialogues: scheduled %d, ran %d", expected, dialogues)
	}
	if got := matches + timeouts + eofs; got != dialogues {
		t.Errorf("conservation broken across the crash: %d+%d+%d = %d, want %d",
			matches, timeouts, eofs, got, dialogues)
	}
}

// TestMuxCrashRecoverySoak is the gateway arm of the crash battery: 2048
// sessions ride a handful of pooled framed connections into one expectd
// -mux gateway, checkpoint at a seeded point, and the gateway is
// SIGKILLed — which tears down every muxed connection at once, the
// failure mode the one-socket-per-session battery above cannot produce
// (there a dead daemon costs each session only its own socket; here one
// lost TCP connection strands thousands of streams). Every session then
// restores from its checkpoint file against a fresh gateway over a fresh
// pool, a 16-session cohort resuming expects that were parked when the
// lights went out. The conservation law must hold with zero lost
// dialogues, and the client side must never have held more than the
// pool's connection bound in sockets.
func TestMuxCrashRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("crash battery: skipped under -short")
	}
	defer testutil.LeakCheck(t, 25, 20*time.Second)()

	const (
		sessions = 2048
		cohort   = 16 // sessions that crash with a parked expect
		shards   = 8
		maxConns = 4 // 2048 sessions over at most 4 sockets
		seed     = 2611
	)

	rng := rand.New(rand.NewSource(seed))
	pre := make([]int, sessions)
	post := make([]int, sessions)
	kinds := make([][]string, sessions)
	var expected int64
	for i := range pre {
		pre[i] = 1 + rng.Intn(2)
		post[i] = 1 + rng.Intn(2)
		for n := 0; n < pre[i]+post[i]; n++ {
			k := "match"
			if rng.Intn(8) == 0 {
				k = "timeout"
			}
			kinds[i] = append(kinds[i], k)
		}
		if i%37 == 0 {
			kinds[i][len(kinds[i])-1] = "eof"
		}
		expected += int64(pre[i] + post[i])
		if i < cohort {
			expected++ // the crash-straddling resume dialogue
		}
	}

	d := startDaemon(t, "-serve", "echo", "-mux", "127.0.0.1:0", "-grace", "60s")
	muxAddr := d.addrs["mux"]
	if muxAddr == "" {
		t.Fatalf("daemon did not advertise its gateway: %v", d.addrs)
	}

	sc := core.NewScheduler(core.SchedulerOptions{Shards: shards})
	prof := metrics.NewProfiler()
	pool := netx.NewMuxPool(netx.MuxOptions{MaxConns: maxConns})
	tall := &counters{}
	live := make([]*core.Session, sessions)

	// Phase 1: open all 2048 streams through the pool and run the
	// pre-crash slice of each schedule; the cohort then parks a long
	// expect that will be mid-flight when the gateway dies.
	var wg sync.WaitGroup
	spawnErr := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := &core.Config{Sched: sc, SID: int32(i + 1), Prof: prof, Mux: pool}
			s, err := core.SpawnMux(cfg, fmt.Sprintf("muxcrash-%d", i), muxAddr, "echo")
			if err != nil {
				spawnErr <- fmt.Errorf("open stream %d: %w", i, err)
				return
			}
			live[i] = s
			for n := 0; n < pre[i]; n++ {
				crashDialogue(s, tall, kinds[i][n], n)
			}
			if i < cohort {
				tall.dialogues.Add(1)
				go s.ExpectTimeout(10*time.Minute,
					core.Exact(fmt.Sprintf("echo:resume-%d\n", i)), core.EOFCase())
			}
		}(i)
	}
	wg.Wait()
	close(spawnErr)
	for err := range spawnErr {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Conns > maxConns {
		t.Fatalf("pool used %d connections for %d sessions, bound is %d", st.Conns, sessions, maxConns)
	} else {
		t.Logf("mux crash battery: %d sessions over %d pooled connections", sessions, st.Conns)
	}

	// Wait until every cohort op is actually parked on its session.
	for i := 0; i < cohort; i++ {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if cp := live[i].Checkpoint(); len(cp.Pending) > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %d never parked its resume expect", i)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	ckptDir := t.TempDir()
	ckptFile := func(i int) string { return filepath.Join(ckptDir, fmt.Sprintf("sess-%04d.json", i)) }
	for i, s := range live {
		cp := s.Checkpoint()
		if i < cohort && len(cp.Pending) != 1 {
			t.Fatalf("session %d checkpoint carries %d pending ops, want 1", i, len(cp.Pending))
		}
		if err := os.WriteFile(ckptFile(i), cp.Marshal(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The crash: SIGKILL. Four TCP connections die and take all 2048
	// streams with them — every stream finishes with EOF at once.
	d.kill()

	for _, s := range live {
		s.Close()
		s.WaitPumpDrained()
	}
	pool.Close()
	sc.Stop()

	// Recovery: fresh gateway, fresh pool, sessions rebuilt from their
	// checkpoint files with a fresh stream as the live transport.
	d2 := startDaemon(t, "-serve", "echo", "-mux", "127.0.0.1:0", "-grace", "60s")
	muxAddr2 := d2.addrs["mux"]
	pool2 := netx.NewMuxPool(netx.MuxOptions{MaxConns: maxConns})
	defer pool2.Close()

	restoreErr := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := os.ReadFile(ckptFile(i))
			if err != nil {
				restoreErr <- err
				return
			}
			cp, err := core.ParseSessionCheckpoint(b)
			if err != nil {
				restoreErr <- fmt.Errorf("parse checkpoint %d: %w", i, err)
				return
			}
			st, err := pool2.Open(muxAddr2, "echo")
			if err != nil {
				restoreErr <- fmt.Errorf("reopen stream %d: %w", i, err)
				return
			}
			s, err := core.RestoreSession(&core.Config{Prof: prof}, cp, st)
			if err != nil {
				st.Close()
				restoreErr <- fmt.Errorf("restore %d: %w", i, err)
				return
			}
			defer func() {
				s.Close()
				s.WaitPumpDrained()
			}()
			if got := s.TotalSeen(); got != cp.TotalSeen {
				restoreErr <- fmt.Errorf("session %d: restored TotalSeen %d, checkpoint says %d", i, got, cp.TotalSeen)
				return
			}
			if i < cohort {
				res := make(chan *core.MatchResult, 1)
				resErr := make(chan error, 1)
				go func() {
					r, err := s.ResumeExpect(cp.Pending[0])
					if err != nil {
						resErr <- err
						return
					}
					res <- r
				}()
				s.Send(fmt.Sprintf("resume-%d\n", i))
				select {
				case r := <-res:
					if r.Eof || r.TimedOut {
						restoreErr <- fmt.Errorf("session %d: resumed expect resolved %+v, want match", i, r)
						return
					}
					tall.matches.Add(1)
				case err := <-resErr:
					restoreErr <- fmt.Errorf("session %d: resumed expect: %w", i, err)
					return
				case <-time.After(30 * time.Second):
					restoreErr <- fmt.Errorf("session %d: resumed expect never resolved", i)
					return
				}
			}
			for n := 0; n < post[i]; n++ {
				crashDialogue(s, tall, kinds[i][pre[i]+n], pre[i]+n)
			}
		}(i)
	}
	wg.Wait()
	close(restoreErr)
	for err := range restoreErr {
		t.Error(err)
	}
	if t.Failed() {
		d2.kill()
		t.FailNow()
	}

	// The surviving gateway must drain clean: every restored stream hung
	// up tidily, so no session was cut.
	if err := d2.stop(); err != nil {
		t.Error(err)
	}

	dialogues := tall.dialogues.Load()
	matches, timeouts := tall.matches.Load(), tall.timeouts.Load()
	eofs, errs := tall.eofs.Load(), tall.errors.Load()
	t.Logf("mux crash battery: %d dialogues across the crash: %d matches %d timeouts %d EOFs %d errors",
		dialogues, matches, timeouts, eofs, errs)
	if errs != 0 {
		t.Errorf("%d dialogue errors across the crash", errs)
	}
	if dialogues != expected {
		t.Errorf("lost dialogues: scheduled %d, ran %d", expected, dialogues)
	}
	if got := matches + timeouts + eofs; got != dialogues {
		t.Errorf("conservation broken across the crash: %d+%d+%d = %d, want %d",
			matches, timeouts, eofs, got, dialogues)
	}
}

// TestExpectdCheckpointRestore exercises the daemon-side hook end to end:
// a drive script parks in expect, SIGUSR1 snapshots the engine (globals +
// the parked op) to the checkpoint file, the daemon is SIGKILLed, and a
// restarted daemon with -restore resumes the script's recorded progress.
func TestExpectdCheckpointRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives an expectd subprocess: skipped under -short")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "expectd.ckpt")
	script1 := filepath.Join(dir, "robot.exp")
	script2 := filepath.Join(dir, "resume.exp")
	if err := os.WriteFile(script1, []byte(`set progress 7
spawn echo
send warm\n
expect {*echo:warm*} {send_user "driver: warmed\n"} timeout {exit 3}
set timeout 3600
send_user "driver: parked\n"
expect {*release-me*} {}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(script2, []byte(`send_user "resumed progress=$progress\n"
`), 0o644); err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, "-serve", "echo", "-drive", script1, "-checkpoint", ckpt)
	if !d.waitLine("driver: parked", 20*time.Second) {
		d.kill()
		t.Fatalf("drive script never parked:\n%s", d.joined())
	}

	// SIGUSR1 until the checkpoint shows the parked op: "parked" printed
	// just before the expect call, so the first signal can land a hair
	// early and record no pending op yet.
	var ec *core.EngineCheckpoint
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := d.cmd.Process.Signal(syscall.SIGUSR1); err != nil {
			d.kill()
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
		if b, err := os.ReadFile(ckpt); err == nil {
			parsed, err := core.ParseEngineCheckpoint(b)
			if err != nil {
				d.kill()
				t.Fatalf("checkpoint file unparseable: %v", err)
			}
			if len(parsed.Sessions) == 1 && len(parsed.Sessions[0].Session.Pending) > 0 {
				ec = parsed
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			t.Fatalf("checkpoint never captured the parked expect:\n%s", d.joined())
		}
	}
	if !d.waitLine("expectd: checkpointed 1 sessions to", 5*time.Second) {
		d.kill()
		t.Fatalf("daemon never reported the checkpoint:\n%s", d.joined())
	}
	if got := ec.Globals["progress"].Value; got != "7" {
		t.Errorf("checkpoint progress global = %q, want 7", got)
	}
	op := ec.Sessions[0].Session.Pending[0]
	var sawPattern bool
	for _, c := range op.Cases {
		if strings.Contains(c.Pattern, "release-me") {
			sawPattern = true
		}
	}
	if !sawPattern {
		t.Errorf("pending op lost its pattern: %+v", op)
	}
	if op.RemainingNS <= 0 {
		t.Errorf("pending op lost its deadline budget: %d", op.RemainingNS)
	}

	// Crash and resume from the recorded state.
	d.kill()
	d2 := startDaemon(t, "-serve", "echo", "-drive", script2, "-restore", ckpt)
	if !d2.waitLine("expectd: restored", 10*time.Second) {
		d2.kill()
		t.Fatalf("restarted daemon never reported the restore:\n%s", d2.joined())
	}
	if !d2.waitLine("resumed progress=7", 20*time.Second) {
		d2.kill()
		t.Fatalf("resumed script did not see the restored global:\n%s", d2.joined())
	}
	if err := d2.stop(); err != nil {
		t.Error(err)
	}
}
