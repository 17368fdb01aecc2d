package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netx"
	"repro/internal/trace"
)

// expectd is one gateway process, started as deployed: the programs the
// gateway workloads use, the mux listener, and the telemetry plane.
type expectd struct {
	cmd       *exec.Cmd
	mux       string
	admin     string
	lines     chan string
	exited    chan struct{}
	waitErr   error
	drainedOK bool // saw "expectd: drained clean"
}

func startExpectd(bin string) (*expectd, error) {
	cmd := exec.Command(bin, "-serve", "login-sim,echo", "-mux", "127.0.0.1:0", "-admin", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// The gateway must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start expectd: %w", err)
	}
	g := &expectd{cmd: cmd, lines: make(chan string, 64), exited: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "expectd: drained clean") {
				g.drainedOK = true
			}
			select {
			case g.lines <- line:
			default: // nobody reads lines after the ready handshake
			}
		}
		g.waitErr = cmd.Wait()
		close(g.exited)
	}()
	timeout := time.After(30 * time.Second)
	for {
		select {
		case line := <-g.lines:
			switch {
			case strings.HasPrefix(line, "expectd: mux on "):
				g.mux = strings.TrimPrefix(line, "expectd: mux on ")
			case strings.HasPrefix(line, "expectd: admin "):
				g.admin = strings.TrimPrefix(line, "expectd: admin ")
			case line == "expectd: ready":
				if g.mux == "" || g.admin == "" {
					g.kill()
					return nil, errors.New("expectd: ready without mux and admin addresses")
				}
				return g, nil
			}
		case <-g.exited:
			return nil, fmt.Errorf("expectd exited before ready: %v", g.waitErr)
		case <-timeout:
			g.kill()
			return nil, errors.New("expectd: no ready line within 30s")
		}
	}
}

func (g *expectd) pid() int { return g.cmd.Process.Pid }

// stop sends SIGTERM and requires the drain contract: exit status 0 after
// a clean drain.
func (g *expectd) stop() error {
	if err := g.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("expectd: SIGTERM: %w", err)
	}
	select {
	case <-g.exited:
	case <-time.After(60 * time.Second):
		g.kill()
		return errors.New("expectd: no exit within 60s of SIGTERM")
	}
	if g.waitErr != nil || !g.drainedOK {
		return fmt.Errorf("expectd: did not drain clean on SIGTERM (exit: %v)", g.waitErr)
	}
	return nil
}

func (g *expectd) kill() {
	g.cmd.Process.Kill()
	<-g.exited
}

// gwStats is what the admin /metrics endpoint says about the gateway.
type gwStats struct{ active, served, refused float64 }

var scrapeClient = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

func (g *expectd) scrape() (gwStats, error) {
	var st gwStats
	resp, err := scrapeClient.Get("http://" + g.admin + "/metrics")
	if err != nil {
		return st, fmt.Errorf("scrape expectd /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, fmt.Errorf("scrape expectd /metrics: %w", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		switch name {
		case "expectd_mux_sessions_active":
			st.active = v
		case "expectd_mux_sessions_served_total":
			st.served = v
		case "expectd_mux_refused_total":
			st.refused += v
		}
	}
	return st, nil
}

// quiesce waits until the gateway runs exactly want streams (a stream
// is scored served just after its CLOSE frame is sent) and returns the
// scrape that saw it.
func (g *expectd) quiesce(want int) (gwStats, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := g.scrape()
		if err != nil || int(st.active) == want {
			return st, err
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("expectd: %v streams active, want %d", st.active, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gwClient is the client side of a gateway workload: a scheduler with
// its default shard count, a pool of at most nproc mux connections, and
// a ring-recording flight recorder, as core.NewEngine arms one. A traced
// client also attaches the opt-in Profiler and IngestStats sinks, with
// the segment pool built on the latter.
type gwClient struct {
	addr   string
	sc     *core.Scheduler
	pool   *netx.MuxPool
	rec    *trace.Recorder
	prof   *metrics.Profiler
	ingest *metrics.IngestStats
}

func newGWClient(addr string, nproc int, traced bool) *gwClient {
	c := &gwClient{addr: addr, sc: core.NewScheduler(core.SchedulerOptions{}), rec: trace.New(0)}
	c.rec.SetRecording(true)
	opt := netx.MuxOptions{MaxConns: nproc}
	if traced {
		c.prof = metrics.NewProfiler()
		c.ingest = &metrics.IngestStats{}
		opt.Stats = c.ingest
		opt.Pool = netx.NewSegmentPool(netx.Options{}.ReadChunk(), c.ingest)
	}
	c.pool = netx.NewMuxPool(opt)
	return c
}

func (c *gwClient) config(sid int) *core.Config {
	return &core.Config{Sched: c.sc, Mux: c.pool, Rec: c.rec, SID: int32(sid), Prof: c.prof, Ingest: c.ingest}
}

func (c *gwClient) counters(expects int64) layerCounters {
	var lc layerCounters
	lc[cTraceEvents] = int64(c.rec.Total())
	lc[cExpects] = expects
	profCounters(&lc, c.prof)
	lc[cCopied] = c.ingest.BytesCopied()
	lc[cHandedOff] = c.ingest.BytesHandedOff()
	lc[cIngestAllocs] = c.ingest.IngestAllocs()
	lc[cLeases] = c.ingest.SegmentLeases()
	lc[cReuses] = c.ingest.SegmentReuses()
	lc[cOpened] = int64(c.pool.Stats().Opened)
	return lc
}

func (c *gwClient) levels() layerLevels {
	lv := layerLevels{muxConns: int64(c.pool.Stats().Conns), dropped: int64(c.sc.Dropped())}
	for _, d := range c.sc.PeakQueueDepths() {
		lv.queuePeak = max(lv.queuePeak, int64(d))
	}
	return lv
}

// close hangs up the pool and stops the scheduler, which must have
// dropped nothing.
func (c *gwClient) close() error {
	c.pool.Close()
	c.sc.Stop()
	if n := c.sc.Dropped(); n != 0 {
		return fmt.Errorf("scheduler dropped %d events", n)
	}
	return nil
}

// opTimeout bounds every gateway expect; a dialogue that needs it fails.
const opTimeout = 5 * time.Second

// gwWorker is one closed-loop client of a gateway stack.
type gwWorker struct {
	cfg     *core.Config
	k       int // ops run
	expects int64
}

// expect runs one expect call under a span and requires the arm the
// inputs predict.
func (w *gwWorker) expect(tr *tracer, s *core.Session, want int, cases ...core.Case) (*core.MatchResult, error) {
	t0 := tr.now()
	r, err := s.ExpectTimeout(opTimeout, cases...)
	tr.call(kindExpect, t0)
	w.expects++
	if err != nil {
		return r, err
	}
	if r.Index != want {
		return r, fmt.Errorf("resolved on arm %d (%q), want arm %d; matched %q", r.Index, r.Case.Pattern, want, r.Text)
	}
	return r, nil
}

func (w *gwWorker) send(tr *tracer, s *core.Session, text string) error {
	t0 := tr.now()
	err := s.Send(text)
	tr.call(kindSend, t0)
	return err
}

// account is a login-sim account (expectd registers guest/guest and
// don/secret).
type account struct {
	user, userLine, pwLine, whoGlob string
}

var accounts = []account{
	{"guest", "guest\n", "guest\n", "*guest*$ "},
	{"don", "don\n", "secret\n", "*don*$ "},
}

// wrongPasswords are never an account's password.
var wrongPasswords = []string{"hunter2\n", "letmein\n", "passw0rd\n", "dragon\n"}

// loginPlan is one seeded login: the account, and the wrong password the
// session first sends ("" when it logs in on the first try).
type loginPlan struct {
	acct  *account
	wrong string
}

// planLen is the length of each worker's cyclic input schedule.
const planLen = 512

// loginStack runs the gateway-login workload: each op is one complete
// login session on a fresh gateway stream.
type loginStack struct {
	c    *gwClient
	ws   []gwWorker
	plan [][]loginPlan
}

func newLoginStack(seed int64, addr string, workers, nproc int, traced bool) *loginStack {
	l := &loginStack{c: newGWClient(addr, nproc, traced)}
	for w := 0; w < workers; w++ {
		// Exactly one login in eight sends a wrong password first; the
		// seed places them and picks the accounts.
		rng := rand.New(rand.NewSource(seed*4 + 2 + int64(w)<<32))
		plan := make([]loginPlan, planLen)
		for k, i := range rng.Perm(planLen) {
			plan[i].acct = &accounts[rng.Intn(len(accounts))]
			if k%8 == 0 {
				plan[i].wrong = wrongPasswords[rng.Intn(len(wrongPasswords))]
			}
		}
		l.plan = append(l.plan, plan)
		l.ws = append(l.ws, gwWorker{cfg: l.c.config(w)})
	}
	return l
}

func (l *loginStack) op(w int, tr *tracer) error {
	ws := &l.ws[w]
	p := l.plan[w][ws.k%planLen]
	ws.k++
	tr.begin(layerBench)
	t0 := tr.now()
	s, err := core.SpawnMux(ws.cfg, "login-sim", l.c.addr, "login-sim")
	tr.call(kindSpawn, t0)
	if err != nil {
		tr.end(false)
		return fmt.Errorf("spawn: %w", err)
	}
	err = l.dialogue(ws, tr, s, p)
	t0 = tr.now()
	s.Close()
	tr.call(kindClose, t0)
	s.WaitPumpDrained()
	tr.end(err == nil)
	if err != nil {
		return fmt.Errorf("login %s (wrong first: %t): %w", p.acct.user, p.wrong != "", err)
	}
	return nil
}

// dialogue is the paper's §5 login script against login-sim.
func (l *loginStack) dialogue(ws *gwWorker, tr *tracer, s *core.Session, p loginPlan) error {
	a := p.acct
	if _, err := ws.expect(tr, s, 0, core.Glob("*login: "), core.TimeoutCase(), core.EOFCase()); err != nil {
		return err
	}
	if err := ws.send(tr, s, a.userLine); err != nil {
		return err
	}
	if _, err := ws.expect(tr, s, 0, core.Glob("*Password: "), core.TimeoutCase(), core.EOFCase()); err != nil {
		return err
	}
	if p.wrong != "" {
		if err := ws.send(tr, s, p.wrong); err != nil {
			return err
		}
		if _, err := ws.expect(tr, s, 1, core.Glob("*Welcome*$ "), core.Glob("*Login incorrect*login: "), core.TimeoutCase(), core.EOFCase()); err != nil {
			return err
		}
		if err := ws.send(tr, s, a.userLine); err != nil {
			return err
		}
		if _, err := ws.expect(tr, s, 0, core.Glob("*Password: "), core.TimeoutCase(), core.EOFCase()); err != nil {
			return err
		}
	}
	if err := ws.send(tr, s, a.pwLine); err != nil {
		return err
	}
	if _, err := ws.expect(tr, s, 0, core.Glob("*Welcome*$ "), core.Glob("*Login incorrect*login: "), core.TimeoutCase(), core.EOFCase()); err != nil {
		return err
	}
	if err := ws.send(tr, s, "who\n"); err != nil {
		return err
	}
	if _, err := ws.expect(tr, s, 0, core.Glob(a.whoGlob), core.TimeoutCase(), core.EOFCase()); err != nil {
		return err
	}
	if err := ws.send(tr, s, "logout\n"); err != nil {
		return err
	}
	_, err := ws.expect(tr, s, 0, core.EOFCase(), core.TimeoutCase())
	return err
}

func (l *loginStack) counters() layerCounters {
	var n int64
	for i := range l.ws {
		n += l.ws[i].expects
	}
	return l.c.counters(n)
}

func (l *loginStack) levels() layerLevels { return l.c.levels() }

func (l *loginStack) live() int { return 0 }

func (l *loginStack) close() error { return l.c.close() }

// Bulk sizes span 32-64 KiB, far past match_max's default of 2000 bytes,
// so every pull forgets most of its bytes.
const (
	bulkMin = 32 << 10
	bulkMax = 64 << 10
)

// bulkStack runs the gateway-bulk workload: each op pulls one blob over
// a long-lived echo stream opened during set-up.
type bulkStack struct {
	c     *gwClient
	ws    []gwWorker
	s     []*core.Session
	sizes [][]int
	buf   [][]byte
}

func newBulkStack(seed int64, addr string, workers, nproc int, traced bool) (*bulkStack, error) {
	b := &bulkStack{c: newGWClient(addr, nproc, traced)}
	for w := 0; w < workers; w++ {
		// The sizes are evenly spaced over [bulkMin, bulkMax] so every
		// seed moves the same bytes; the seed picks their order.
		rng := rand.New(rand.NewSource(seed*4 + 3 + int64(w)<<32))
		sizes := make([]int, planLen)
		for k, i := range rng.Perm(planLen) {
			sizes[i] = bulkMin + k*(bulkMax-bulkMin)/(planLen-1)
		}
		ws := gwWorker{cfg: b.c.config(w)}
		s, err := core.SpawnMux(ws.cfg, "echo", addr, "echo")
		if err != nil {
			b.close()
			return nil, fmt.Errorf("open bulk stream %d: %w", w, err)
		}
		b.ws = append(b.ws, ws)
		b.s = append(b.s, s)
		b.sizes = append(b.sizes, sizes)
		b.buf = append(b.buf, make([]byte, 0, 32))
	}
	return b, nil
}

const blobMarker = "echo:blob"

func (b *bulkStack) op(w int, tr *tracer) error {
	ws, s := &b.ws[w], b.s[w]
	n := b.sizes[w][ws.k%planLen]
	ws.k++
	tr.begin(layerBench)
	forgot := s.Forgotten()
	b.buf[w] = strconv.AppendInt(append(b.buf[w][:0], "blob "...), int64(n), 10)
	b.buf[w] = append(b.buf[w], '\n')
	t0 := tr.now()
	err := s.SendBytes(b.buf[w])
	tr.call(kindSend, t0)
	if err == nil {
		var r *core.MatchResult
		r, err = ws.expect(tr, s, 0, core.Glob("*"+blobMarker+"*"), core.TimeoutCase(), core.EOFCase())
		if err == nil {
			err = checkBlob(r.Text, n, s.MatchMax(), s.Forgotten()-forgot)
		}
	}
	tr.end(err == nil)
	if err != nil {
		b.reopen(w)
		return fmt.Errorf("blob %d: %w", n, err)
	}
	return nil
}

// reopen replaces worker w's stream after a failed pull, whose unread
// output would otherwise spoil the next one.
func (b *bulkStack) reopen(w int) {
	b.s[w].Close()
	b.s[w].WaitPumpDrained()
	if s, err := core.SpawnMux(b.ws[w].cfg, "echo", b.c.addr, "echo"); err == nil {
		b.s[w] = s
	}
}

// checkBlob verifies one pull: the match is filler ending in the marker,
// and the window forgot at least n - match_max bytes on the way.
func checkBlob(text string, n, matchMax int, forgot int64) error {
	body, ok := strings.CutSuffix(strings.TrimSuffix(text, "\n"), blobMarker)
	if !ok || strings.Trim(body, "x\n") != "" {
		return fmt.Errorf("match %q is not filler ending in %q", tail(text), blobMarker)
	}
	if forgot < int64(n-matchMax) {
		return fmt.Errorf("forgot %d bytes, want at least %d", forgot, n-matchMax)
	}
	return nil
}

func tail(s string) string {
	if len(s) > 64 {
		return "..." + s[len(s)-64:]
	}
	return s
}

func (b *bulkStack) counters() layerCounters {
	var n int64
	for i := range b.ws {
		n += b.ws[i].expects
	}
	return b.c.counters(n)
}

func (b *bulkStack) levels() layerLevels { return b.c.levels() }

func (b *bulkStack) live() int { return len(b.s) }

func (b *bulkStack) close() error {
	for _, s := range b.s {
		s.Close()
		s.WaitPumpDrained()
	}
	b.s = nil
	return b.c.close()
}
