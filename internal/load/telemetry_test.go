package load

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netx"
)

// This file is the telemetry-plane battery: the conservation law read
// through /debug/sessions, the load-workbench registry hooks, and the
// expectd admin protocol (admin line before ready, plane readable while
// draining, listener closed last).

func adminGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminSessionsConservation is the acceptance check: at a
// checkpointed instant — every driven session parked in an expect, no
// respawn in flight — /debug/sessions must list exactly the sessions the
// workbench drove, each with its parked op and a live remaining timeout.
func TestAdminSessionsConservation(t *testing.T) {
	const sessions = 48
	sc := core.NewScheduler(core.SchedulerOptions{Shards: 4})
	defer sc.Stop()

	reg := metrics.NewRegistry()
	sc.RegisterMetrics(reg)
	srv, err := admin.Listen("127.0.0.1:0", admin.Options{
		Registry: reg,
		Sessions: sc.SessionInfos,
		Shards:   sc.SnapshotShards,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Drive K sessions to the checkpointed instant: one expect each,
	// armed with a long deadline, waiting on a line that hasn't been sent.
	const armed = 60 * time.Second
	sess := make([]*core.Session, sessions)
	done := make(chan error, sessions)
	for i := range sess {
		s, err := core.SpawnProgram(&core.Config{Sched: sc, SID: int32(i + 1)},
			fmt.Sprintf("echo-%d", i+1), EchoServer())
		if err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
		defer s.Close()
		sess[i] = s
		go func(s *core.Session) {
			_, err := s.ExpectTimeout(armed, core.Exact("echo:release\n"))
			done <- err
		}(s)
	}

	// Wait for every op to park on its shard loop.
	deadline := time.Now().Add(10 * time.Second)
	for {
		parked := 0
		for _, snap := range sc.SnapshotShards() {
			parked += snap.ParkedOps
		}
		if parked == sessions {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d ops parked", parked, sessions)
		}
		time.Sleep(time.Millisecond)
	}

	// The instant: scrape over real HTTP and check the conservation law.
	code, body := adminGet(t, srv.Addr(), "/debug/sessions")
	if code != http.StatusOK {
		t.Fatalf("/debug/sessions status %d", code)
	}
	var reply struct {
		Count    int                `json:"count"`
		Sessions []core.SessionInfo `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		t.Fatalf("sessions JSON: %v", err)
	}
	if reply.Count != sessions || len(reply.Sessions) != sessions {
		t.Fatalf("sessions listed = %d (count %d), sessions driven = %d",
			len(reply.Sessions), reply.Count, sessions)
	}
	seen := map[int32]bool{}
	for _, info := range reply.Sessions {
		if seen[info.SID] {
			t.Errorf("sid %d listed twice", info.SID)
		}
		seen[info.SID] = true
		if info.ParkedOps != 1 {
			t.Errorf("sid %d: ParkedOps = %d, want 1", info.SID, info.ParkedOps)
		}
		if info.RemainingTimeoutNS <= 0 || info.RemainingTimeoutNS > armed.Nanoseconds() {
			t.Errorf("sid %d: remaining timeout %d outside (0, %d]",
				info.SID, info.RemainingTimeoutNS, armed.Nanoseconds())
		}
		if info.State != "open" {
			t.Errorf("sid %d: state %q", info.SID, info.State)
		}
	}
	// The registry's parked-op rollup tells the same story.
	_, expo := adminGet(t, srv.Addr(), "/metrics")
	var parkedTotal float64
	for _, line := range strings.Split(expo, "\n") {
		var shard string
		var v float64
		if n, _ := fmt.Sscanf(line, "expect_shard_parked_ops{shard=%q} %f", &shard, &v); n == 2 {
			parkedTotal += v
		}
	}
	if int(parkedTotal) != sessions {
		t.Errorf("/metrics parked ops = %v, want %d", parkedTotal, sessions)
	}

	// Release the instant: every parked expect resolves to a match.
	for _, s := range sess {
		s.Send("release\n")
	}
	for range sess {
		if err := <-done; err != nil {
			t.Errorf("parked expect: %v", err)
		}
	}
}

// TestLoadRegistryHooks checks Config.Registry and Config.OnScheduler:
// the run's telemetry is registered before the dialogue phase, and the
// counters a scraper would read agree with the workbench's own report.
func TestLoadRegistryHooks(t *testing.T) {
	reg := metrics.NewRegistry()
	var hooked *core.Scheduler
	res, err := Run(Config{
		Sessions:    8,
		Dialogues:   5,
		Shards:      2,
		Seed:        42,
		Registry:    reg,
		OnScheduler: func(sc *core.Scheduler) { hooked = sc },
	})
	if err != nil {
		t.Fatal(err)
	}
	if hooked == nil {
		t.Error("OnScheduler never called")
	}
	expo := string(reg.RenderPrometheus())
	for metric, want := range map[string]int64{
		"load_dialogues_total": res.Dialogues,
		"load_matches_total":   res.Matches,
		"load_timeouts_total":  res.Timeouts,
		"load_eofs_total":      res.EOFs,
		"load_errors_total":    0,
	} {
		if !strings.Contains(expo, fmt.Sprintf("%s %d\n", metric, want)) {
			t.Errorf("exposition missing %q = %d:\n%s", metric, want, expo)
		}
	}
	if !strings.Contains(expo, "load_dialogue_seconds_count") {
		t.Error("dialogue histogram not registered")
	}
	if !strings.Contains(expo, "expect_shard_wakeup_seconds_count") {
		t.Error("scheduler families not registered")
	}
}

// TestExpectdAdminProtocol pins the daemon's telemetry contract end to
// end: the "expectd: admin <addr>" stdout line appears after the serving
// lines and before ready; the plane answers while the daemon is up; and
// on SIGTERM the admin listener closes LAST — /debug/sessions and
// /metrics stay readable through the whole drain window.
func TestExpectdAdminProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the expectd binary: skipped under -short")
	}
	d := startDaemon(t, "-serve", "echo", "-admin", "127.0.0.1:0", "-grace", "30s")

	// Protocol order: serving, then admin, then ready — and the admin
	// line is machine-parseable.
	d.mu.Lock()
	lines := append([]string(nil), d.lines...)
	d.mu.Unlock()
	adminIdx, readyIdx, servingIdx := -1, -1, -1
	var adminAddr string
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "expectd: serving "):
			servingIdx = i
		case strings.HasPrefix(line, "expectd: admin "):
			adminIdx = i
			if _, err := fmt.Sscanf(line, "expectd: admin %s", &adminAddr); err != nil {
				t.Fatalf("unparseable admin line %q: %v", line, err)
			}
		case line == "expectd: ready":
			readyIdx = i
		}
	}
	if adminIdx < 0 {
		t.Fatalf("no admin line in:\n%s", strings.Join(lines, "\n"))
	}
	if !(servingIdx < adminIdx && adminIdx < readyIdx) {
		t.Fatalf("protocol order serving=%d admin=%d ready=%d, want serving < admin < ready",
			servingIdx, adminIdx, readyIdx)
	}

	// Plane is live before any drain.
	if code, body := adminGet(t, adminAddr, "/metrics"); code != 200 || !strings.Contains(body, "# TYPE") {
		t.Fatalf("/metrics while serving: status %d", code)
	}

	// Hold a session open across the SIGTERM so the drain window is real.
	conn, err := net.Dial("tcp", d.addrs["echo"])
	if err != nil {
		t.Fatalf("dial echo: %v", err)
	}
	fmt.Fprintf(conn, "hello\n")
	buf := make([]byte, 64)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("echo read: %v", err)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if !d.waitLine("expectd: draining", 10*time.Second) {
		t.Fatalf("no draining line after SIGTERM:\n%s", d.joined())
	}

	// Mid-drain: the one in-flight session holds the daemon open, and the
	// admin plane must still answer — this is the close-last contract.
	code, body := adminGet(t, adminAddr, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics mid-drain: status %d", code)
	}
	if !strings.Contains(body, "expectd_draining 1") {
		t.Errorf("mid-drain exposition missing expectd_draining 1")
	}
	if !strings.Contains(body, `expectd_sessions_active{program="echo"} 1`) {
		t.Errorf("mid-drain exposition missing the held session:\n%s", body)
	}
	if code, _ := adminGet(t, adminAddr, "/debug/sessions"); code != 200 {
		t.Errorf("/debug/sessions mid-drain: status %d", code)
	}

	// Let the dialogue finish; the drain must complete clean (exit 0).
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	select {
	case <-d.scanDone:
	case <-time.After(60 * time.Second):
		d.kill()
		t.Fatalf("daemon did not exit after the held session closed:\n%s", d.joined())
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("exit status after clean drain: %v\n%s", err, d.joined())
	}
	if !strings.Contains(d.joined(), "drained clean, served 1 sessions") {
		t.Errorf("missing drained-clean report:\n%s", d.joined())
	}
	conn.Close()
}

// TestExpectdMuxWriteQueueGauges: a live gateway exports its write-queue
// budget levels — the summed queued bytes and the per-connection peak,
// with help text naming the 1 MiB budget — in /metrics and /debug/mux,
// and after a bulk pull the peak is non-zero while nothing stays queued.
func TestExpectdMuxWriteQueueGauges(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the expectd binary: skipped under -short")
	}
	d := startDaemon(t, "-serve", "echo", "-mux", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-grace", "30s")
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	var adminAddr string
	for _, line := range strings.Split(d.joined(), "\n") {
		fmt.Sscanf(line, "expectd: admin %s", &adminAddr)
	}
	if adminAddr == "" {
		t.Fatalf("no admin line in:\n%s", d.joined())
	}

	pool := netx.NewMuxPool(netx.MuxOptions{})
	st, err := pool.Open(d.addrs["mux"], "echo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(st, "blob %d\n", 64<<10); err != nil {
		t.Fatal(err)
	}
	var got []byte
	buf := make([]byte, 4096)
	for !strings.HasSuffix(string(got), "echo:blob\n") {
		n, err := st.Read(buf)
		if err != nil {
			t.Fatalf("blob read after %d bytes: %v", len(got), err)
		}
		got = append(got, buf[:n]...)
	}
	st.Close()
	pool.Close()

	// Once the hung-up connection is gone nothing can stay queued.
	var body string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		_, body = adminGet(t, adminAddr, "/metrics")
		if strings.Contains(body, "expectd_mux_conns 0\n") || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range []string{
		"# HELP expectd_mux_write_queued_bytes ",
		"# HELP expectd_mux_write_queued_bytes_peak ",
		"expectd_mux_write_queued_bytes 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# HELP expectd_mux_write_queued_bytes") && !strings.Contains(line, "1 MiB") {
			t.Errorf("help text does not name the 1 MiB budget: %q", line)
		}
	}
	_, js := adminGet(t, adminAddr, "/debug/mux")
	var ms netx.MuxServerStats
	if err := json.Unmarshal([]byte(js), &ms); err != nil {
		t.Fatalf("/debug/mux: %v\n%s", err, js)
	}
	if ms.WriteQueuedPeak <= 0 || ms.WriteQueued != 0 {
		t.Errorf("/debug/mux after a 64 KiB pull: write_queued_bytes %d, _peak %d; want 0 and > 0",
			ms.WriteQueued, ms.WriteQueuedPeak)
	}
	stopped = true
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
}
