package experiments

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/load"
	"repro/internal/metrics"
)

// NetworkScaling is experiment E18: the E17 session sweep rerun over
// real loopback sockets, with the talker programs served by an expectd
// daemon running as a separate OS process. The paper's expect owns its
// children through ptys on one machine; the socket transport
// (internal/netx) extends the same engine semantics to programs it can
// only reach by dialing, and this measures what that costs at scale.
//
// Running expectd out of process is not a convenience: at 10k sessions
// the client side alone holds 10k socket fds, and this container's fd
// ceiling is a hard 20000 (Setrlimit cannot raise it), so server and
// client must each spend their own budget. It also makes the sweep an
// end-to-end rehearsal of the production shape — build the daemon, parse
// its "serving NAME on ADDR" lines, drive it from another process, and
// SIGTERM it at the end, requiring a clean drain (exit 0), which
// exercises the netx.Server drain contract on every E18 run.
//
// The sweep: {64, 1000, 10000} concurrent socket sessions × {goroutine,
// sharded} schedulers, same seeded dialogue mix as E17. The acceptance
// bar mirrors E17's: 10k sharded socket sessions stay within 2x the
// per-dialogue cost of the 64-session goroutine baseline (also over
// sockets). benchreport's guards pin the ratio.
func NetworkScaling(repoRoot string) (Result, error) {
	const (
		shardCount = 8
		seed       = 1990
	)

	d, err := startExpectd(repoRoot)
	if err != nil {
		return Result{}, fmt.Errorf("e18: %w", err)
	}
	defer d.kill()

	addrs := &load.NetAddrs{Echo: d.addrs["echo"], Slow: d.addrs["slow"], Bursty: d.addrs["bursty"]}
	sweep := []int{64, 1000, 10000}
	modes := []struct {
		name   string
		shards int
	}{
		{"goroutine", 0},
		{"sharded", shardCount},
	}

	type cell struct {
		sessions int
		mode     string
		res      *load.Result
		nsPerD   float64
	}
	var cells []cell

	for _, sessions := range sweep {
		dialogues := 4000 / sessions
		if dialogues < 2 {
			dialogues = 2
		}
		for _, mode := range modes {
			res, err := load.Run(load.Config{
				Sessions:  sessions,
				Dialogues: dialogues,
				Shards:    mode.shards,
				Seed:      seed,
				Net:       addrs,
				Prof:      metrics.NewProfiler(),
			})
			if err != nil {
				return Result{}, fmt.Errorf("e18 %s/%d sessions: %w", mode.name, sessions, err)
			}
			if res.Errors != 0 || res.Dropped != 0 {
				return Result{}, fmt.Errorf("e18 %s/%d sessions: %d errors, %d dropped",
					mode.name, sessions, res.Errors, res.Dropped)
			}
			cells = append(cells, cell{
				sessions: sessions,
				mode:     mode.name,
				res:      res,
				nsPerD:   float64(res.Elapsed.Nanoseconds()) / float64(res.Dialogues),
			})
		}
	}

	// The daemon must drain clean when told to stop — the drain contract
	// is part of what this experiment certifies, so a cut session or a
	// dirty exit fails the run, not just the verdict.
	served, err := d.stop()
	if err != nil {
		return Result{}, fmt.Errorf("e18 shutdown: %w", err)
	}

	find := func(sessions int, mode string) cell {
		for _, c := range cells {
			if c.sessions == sessions && c.mode == mode {
				return c
			}
		}
		return cell{}
	}

	t := &table{header: []string{"sessions", "scheduler", "dialogues", "ns/dialogue", "dlg/sec", "p99 wakeup"}}
	m := map[string]float64{}
	for _, c := range cells {
		t.add(fmt.Sprintf("%d", c.sessions), c.mode,
			fmt.Sprintf("%d", c.res.Dialogues),
			fmt.Sprintf("%.0f", c.nsPerD),
			fmt.Sprintf("%.0f", c.res.DialoguesPerSec),
			fmt.Sprintf("%dns", c.res.Wakeup.P99NS))
		key := fmt.Sprintf("%d_%s_net", c.sessions, c.mode)
		m["ns_per_dialogue_"+key] = c.nsPerD
		m["dialogues_per_sec_"+key] = c.res.DialoguesPerSec
	}
	m["expectd_served_sessions"] = float64(served)

	baseline := find(64, "goroutine")
	extreme := find(10000, "sharded")
	ratio := extreme.nsPerD / baseline.nsPerD
	m["ratio_10k_sharded_vs_64_goroutine_net"] = ratio

	verdict := fmt.Sprintf("10k sharded socket sessions run at %.2fx the per-dialogue cost of the 64-session goroutine baseline (bar: 2x); expectd drained clean after %d sessions", ratio, served)
	if ratio > 2 {
		verdict = fmt.Sprintf("OVER BAR: 10k sharded socket sessions at %.2fx the 64-session goroutine baseline (bar: 2x)", ratio)
	}
	return Result{
		ID:    "E18",
		Title: "socket transport scaling via expectd",
		PaperClaim: `the paper's expect reaches children only through ptys on one machine; ` +
			`this measures the same engine semantics over a wire, at the E17 session counts`,
		Table:   t.String(),
		Metrics: m,
		Verdict: verdict,
	}, nil
}

// expectdProc is a running expectd daemon owned by the experiment.
type expectdProc struct {
	cmd      *exec.Cmd
	tmp      string
	addrs    map[string]string
	tail     *tailBuf
	scanDone chan struct{} // closed when stdout hits EOF (process exited)
}

// tailBuf collects the daemon's stdout lines after startup so stop() can
// verify the drain message.
type tailBuf struct {
	mu    sync.Mutex
	lines []string
}

func (b *tailBuf) add(line string) {
	b.mu.Lock()
	b.lines = append(b.lines, line)
	b.mu.Unlock()
}

func (b *tailBuf) joined() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Join(b.lines, "\n")
}

// startExpectd builds cmd/expectd from repoRoot into a temp dir, starts
// it serving the three talker programs, and parses the advertised
// addresses from its stdout.
func startExpectd(repoRoot string) (*expectdProc, error) {
	tmp, err := os.MkdirTemp("", "e18-expectd-")
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(tmp, "expectd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/expectd")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(tmp)
		return nil, fmt.Errorf("build expectd: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-serve", "echo,slow,bursty", "-grace", "60s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		os.RemoveAll(tmp)
		return nil, fmt.Errorf("start expectd: %w", err)
	}

	d := &expectdProc{cmd: cmd, tmp: tmp, addrs: map[string]string{},
		tail: &tailBuf{}, scanDone: make(chan struct{})}
	sc := bufio.NewScanner(stdout)
	ready := false
	for sc.Scan() {
		line := sc.Text()
		var name, addr string
		if _, err := fmt.Sscanf(line, "expectd: serving %s on %s", &name, &addr); err == nil {
			d.addrs[name] = addr
			continue
		}
		if line == "expectd: ready" {
			ready = true
			break
		}
	}
	if !ready {
		d.kill()
		return nil, fmt.Errorf("expectd never became ready (scan err: %v)", sc.Err())
	}
	for _, want := range []string{"echo", "slow", "bursty"} {
		if d.addrs[want] == "" {
			d.kill()
			return nil, fmt.Errorf("expectd did not advertise %q (got %v)", want, d.addrs)
		}
	}
	// Keep draining stdout so the daemon never blocks on a full pipe, and
	// so the drain report is available to stop(). stop() must not call
	// cmd.Wait until this goroutine sees EOF — Wait closes the pipe and
	// would race away the final report lines.
	go func() {
		defer close(d.scanDone)
		for sc.Scan() {
			d.tail.add(sc.Text())
		}
	}()
	return d, nil
}

// stop SIGTERMs the daemon and requires the clean-drain exit: status 0
// and the "drained clean" report. Returns the served-session count.
func (d *expectdProc) stop() (uint64, error) {
	defer os.RemoveAll(d.tmp)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, fmt.Errorf("signal expectd: %w", err)
	}
	select {
	case <-d.scanDone:
	case <-time.After(90 * time.Second):
		d.cmd.Process.Kill()
		<-d.scanDone
		d.cmd.Wait()
		return 0, fmt.Errorf("expectd did not exit within 90s of SIGTERM\n%s", d.tail.joined())
	}
	if err := d.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("expectd exited dirty: %v\n%s", err, d.tail.joined())
	}
	var served uint64
	for _, line := range strings.Split(d.tail.joined(), "\n") {
		if _, err := fmt.Sscanf(line, "expectd: drained clean, served %d sessions", &served); err == nil {
			return served, nil
		}
	}
	return 0, fmt.Errorf("expectd exited 0 without the drained-clean report:\n%s", d.tail.joined())
}

// kill is the error-path teardown: no drain verification, just make the
// process and temp dir go away.
func (d *expectdProc) kill() {
	if d.cmd != nil && d.cmd.Process != nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
	os.RemoveAll(d.tmp)
}
