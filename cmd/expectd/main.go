// Command expectd is the session server: a concurrent TCP daemon that
// serves the repo's interactive programs — the load-workbench talkers
// and the simulated programs (login, eliza, chess) — one program
// instance per connection, so a goexpect script can drive them remotely:
//
//	expectd -serve echo,login-sim &
//	goexpect -c 'spawn -network 127.0.0.1:46000; ...'
//
// Each served program gets its own listener; the daemon prints one
//
//	expectd: serving <name> on <host:port>
//
// line per program (machine-parseable — E18 scrapes them) and then
// "expectd: ready".
//
// With -mux addr the daemon additionally runs a session gateway: one
// framed listener (internal/netx/mux) multiplexing every served program,
// many sessions per TCP connection — OPEN frames name the program, DATA
// frames interleave per-stream, and a pooled client (netx.MuxPool,
// core.SpawnMux) drives thousands of dialogues over a handful of
// sockets. Its address is printed as "expectd: mux on <host:port>" (E23
// scrapes it). -mux-sessions caps concurrent gateway streams and
// -tenant-quota caps them per tenant; an OPEN over either limit is
// refused immediately with a GOAWAY frame naming the reason, never
// queued. The gateway snapshot is served on /debug/mux when -admin is up.
//
// With -admin addr the daemon also serves a telemetry plane: Prometheus
// metrics on /metrics, live session and shard introspection on
// /debug/sessions and /debug/shards, pprof under /debug/pprof/, and a
// streaming JSONL trace tap on /debug/trace?sid=N. Its bound address is
// printed as "expectd: admin <host:port>" before the ready line, and the
// listener is the LAST thing closed on shutdown — /debug/sessions stays
// readable while the daemon drains.
//
// The daemon can also run a goexpect script of its own (-drive), which
// spawns the same programs in-process — a resident driver session. With
// -checkpoint FILE armed, SIGUSR1 serializes the drive engine's state
// (interpreter globals plus one SessionCheckpoint per live spawn,
// including any expect parked on it) and atomically writes it
// to FILE:
//
//	expectd -drive robot.exp -checkpoint /var/run/expectd.ckpt &
//	kill -USR1 $!             # → "expectd: checkpointed N sessions to ..."
//
// A later incarnation started with -restore FILE reads the checkpoint
// back and reinstalls the interpreter globals before the drive script
// runs, so a crashed daemon's script can resume from its recorded
// progress. Session transports do not survive the process — restoring
// live dialogues is core.RestoreSession plus a reconnect, which is the
// client's job (see the crash/recovery battery in internal/load).
//
// Shutdown honors the netx.Server drain contract: on SIGTERM/SIGINT the
// daemon stops accepting, lets every in-flight session run its dialogue
// to EOF within the -grace window, and only then closes. It exits 0 only
// when no session was cut mid-dialogue.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/netx"
	"repro/internal/proc"
	"repro/internal/programs/authsim"
	"repro/internal/programs/chess"
	"repro/internal/programs/eliza"
)

// registry maps servable program names to constructors. Constructed once
// per listener; program values are instance-safe (one invocation per
// connection), same as virtual spawns.
func registry() map[string]func() proc.Program {
	return map[string]func() proc.Program{
		"echo":   func() proc.Program { return load.EchoServer() },
		"slow":   func() proc.Program { return load.SlowTalker(100 * time.Microsecond) },
		"bursty": func() proc.Program { return load.BurstyLogger(8) },
		"login-sim": func() proc.Program {
			return authsim.NewLogin(authsim.LoginConfig{
				Accounts: map[string]string{"guest": "guest", "don": "secret"},
			})
		},
		"eliza-sim": func() proc.Program { return eliza.New(eliza.Config{}) },
		"chess-sim": func() proc.Program { return chess.New(chess.Config{EngineSide: chess.Black}) },
	}
}

// writeFileAtomic writes b to path via a same-directory temp file and
// rename, so a reader (or a crash) never sees a half-written checkpoint.
func writeFileAtomic(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

func main() {
	var (
		serveList = flag.String("serve", "echo,slow,bursty,login-sim,eliza-sim,chess-sim",
			"comma-separated programs to serve; each entry is name or name=host:port (default port 0 on -host)")
		host  = flag.String("host", "127.0.0.1", "default listen host for entries without an explicit address")
		grace = flag.Duration("grace", 30*time.Second, "drain window on SIGTERM/SIGINT before in-flight sessions are cut")
		drive = flag.String("drive", "",
			"goexpect script the daemon runs in-process; served program names are spawnable directly")
		ckptPath = flag.String("checkpoint", "",
			"arm SIGUSR1: each signal atomically writes an engine checkpoint (interpreter globals + live session snapshots) to this file; signal while the drive script is parked in expect, not mid-evaluation")
		restorePath = flag.String("restore", "",
			"engine-checkpoint file to read at startup; its interpreter globals are reinstalled before -drive runs")
		adminAddr = flag.String("admin", "",
			"telemetry-plane listen address (host:0 picks a port): /metrics, /debug/sessions, /debug/shards, /debug/pprof/, /debug/trace")
		muxAddr = flag.String("mux", "",
			"session-gateway listen address (host:0 picks a port): one framed TCP listener multiplexing every served program, many sessions per connection")
		muxSessions = flag.Int("mux-sessions", 0,
			"gateway-wide concurrent session cap (0 = unlimited); excess OPENs are refused with GOAWAY")
		tenantQuota = flag.Int("tenant-quota", 0,
			"per-tenant concurrent session cap on the gateway (0 = unlimited); a tenant at quota gets GOAWAY, not a queue")
	)
	flag.Parse()

	// The drive engine exists only when something needs it. A pending
	// expect parks on its session however the session is driven, so a
	// SIGUSR1 taken while the drive script waits in expect records the
	// pending op.
	var eng *core.Engine
	if *drive != "" || *ckptPath != "" || *restorePath != "" {
		eng = core.NewEngine(core.EngineOptions{Transport: "pipe", Shards: 2})
		for name, mk := range registry() {
			eng.RegisterVirtual(name, mk())
		}
		if *restorePath != "" {
			b, err := os.ReadFile(*restorePath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "expectd: restore: %v\n", err)
				os.Exit(1)
			}
			ec, err := core.ParseEngineCheckpoint(b)
			if err != nil {
				fmt.Fprintf(os.Stderr, "expectd: restore %s: %v\n", *restorePath, err)
				os.Exit(1)
			}
			eng.RestoreGlobals(ec)
			fmt.Printf("expectd: restored %d globals and %d session checkpoints from %s\n",
				len(ec.Globals), len(ec.Sessions), *restorePath)
		}
	}

	reg := registry()
	var servers []*netx.Server
	var serverNames []string
	for _, entry := range strings.Split(*serveList, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, addr := entry, *host+":0"
		if eq := strings.IndexByte(entry, '='); eq >= 0 {
			name, addr = entry[:eq], entry[eq+1:]
		}
		mk, ok := reg[name]
		if !ok {
			known := make([]string, 0, len(reg))
			for k := range reg {
				known = append(known, k)
			}
			sort.Strings(known)
			fmt.Fprintf(os.Stderr, "expectd: unknown program %q (have %s)\n", name, strings.Join(known, ", "))
			os.Exit(2)
		}
		srv, err := netx.NewServer(addr, mk())
		if err != nil {
			fmt.Fprintf(os.Stderr, "expectd: listen %s for %s: %v\n", addr, name, err)
			os.Exit(1)
		}
		servers = append(servers, srv)
		serverNames = append(serverNames, name)
		fmt.Printf("expectd: serving %s on %s\n", name, srv.Addr())
	}
	if len(servers) == 0 {
		fmt.Fprintln(os.Stderr, "expectd: nothing to serve")
		os.Exit(2)
	}

	// The session gateway multiplexes every served program behind one
	// framed listener: a client pool opens thousands of sessions over a
	// handful of TCP connections (OPEN names the program), which is how the
	// daemon scales past the one-socket-per-dialogue fd ceiling.
	var muxSrv *netx.MuxServer
	if *muxAddr != "" {
		progs := make(map[string]proc.Program, len(serverNames))
		for _, name := range serverNames {
			progs[name] = reg[name]()
		}
		var err error
		muxSrv, err = netx.NewMuxServer(*muxAddr, progs, netx.MuxServerOptions{
			TenantQuota: *tenantQuota,
			MaxSessions: *muxSessions,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "expectd: mux listen %s: %v\n", *muxAddr, err)
			os.Exit(1)
		}
		fmt.Printf("expectd: mux on %s\n", muxSrv.Addr())
	}

	// The telemetry plane comes up after the listeners (so its per-program
	// gauges have servers to read) and before the ready line (so a harness
	// that waits for ready already knows the admin address).
	var adminSrv *admin.Server
	if *adminAddr != "" {
		mreg := metrics.NewRegistry()
		perProgram := func(read func(netx.ServerStats) float64) func() map[string]float64 {
			return func() map[string]float64 {
				out := make(map[string]float64, len(servers))
				for i, srv := range servers {
					out[serverNames[i]] = read(srv.Stats())
				}
				return out
			}
		}
		mreg.GaugeVec("expectd_sessions_active",
			"Connections currently running a program instance, per served program.",
			"program", perProgram(func(st netx.ServerStats) float64 { return float64(st.Active) }))
		mreg.CounterVec("expectd_sessions_served_total",
			"Sessions whose program ran to completion, per served program.",
			"program", perProgram(func(st netx.ServerStats) float64 { return float64(st.Served) }))
		mreg.Gauge("expectd_draining",
			"1 once the daemon has begun its drain, 0 while accepting.",
			func() float64 {
				for _, srv := range servers {
					if srv.Stats().Draining {
						return 1
					}
				}
				return 0
			})
		if muxSrv != nil {
			mreg.Gauge("expectd_mux_sessions_active",
				"Streams currently running a program instance on the session gateway.",
				func() float64 { return float64(muxSrv.Stats().Active) })
			mreg.Counter("expectd_mux_sessions_served_total",
				"Gateway streams whose program ran to completion.",
				func() float64 { return float64(muxSrv.Served()) })
			mreg.Gauge("expectd_mux_conns",
				"Live multiplexed TCP connections on the session gateway.",
				func() float64 { return float64(muxSrv.Stats().Conns) })
			mreg.Gauge("expectd_mux_write_queued_bytes",
				"Frame bytes queued for the gateway's sockets but not yet written, summed over connections; each connection's budget is 1 MiB, past which its writers park.",
				func() float64 { return float64(muxSrv.Stats().WriteQueued) })
			mreg.Gauge("expectd_mux_write_queued_bytes_peak",
				"Highest write queue any one gateway connection has reached, in bytes, against the 1 MiB per-connection budget.",
				func() float64 { return float64(muxSrv.Stats().WriteQueuedPeak) })
			mreg.GaugeVec("expectd_mux_tenant_sessions",
				"Live gateway streams per tenant (quota accounting).",
				"tenant", func() map[string]float64 {
					st := muxSrv.Stats()
					out := make(map[string]float64, len(st.Tenants))
					for tenant, n := range st.Tenants {
						out[tenant] = float64(n)
					}
					return out
				})
			mreg.CounterVec("expectd_mux_refused_total",
				"Gateway OPENs refused with GOAWAY, by reason.",
				"reason", func() map[string]float64 {
					st := muxSrv.Stats()
					out := make(map[string]float64, len(st.Refused))
					for reason, n := range st.Refused {
						out[reason] = float64(n)
					}
					return out
				})
		}
		opt := admin.Options{Registry: mreg}
		if muxSrv != nil {
			opt.Mux = muxSrv.Stats
		}
		if eng != nil {
			eng.RegisterMetrics(mreg)
			opt.Sessions = eng.SessionInfos
			opt.Shards = eng.Scheduler().SnapshotShards
			opt.Recorder = eng.Recorder()
		}
		var err error
		adminSrv, err = admin.Listen(*adminAddr, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expectd: admin listen %s: %v\n", *adminAddr, err)
			os.Exit(1)
		}
		fmt.Printf("expectd: admin %s\n", adminSrv.Addr())
	}
	// The handlers go in before the ready line: a harness may signal the
	// moment it reads it, and an uncaught SIGTERM would kill the daemon
	// without a drain.
	notif := []os.Signal{syscall.SIGTERM, syscall.SIGINT}
	if *ckptPath != "" {
		notif = append(notif, syscall.SIGUSR1)
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, notif...)
	fmt.Println("expectd: ready")

	if *drive != "" {
		go func() {
			if _, err := eng.RunFile(*drive); err != nil {
				fmt.Fprintf(os.Stderr, "expectd: drive: %v\n", err)
				return
			}
			fmt.Println("expectd: drive script finished")
		}()
	}

	for s := range sig {
		if s != syscall.SIGUSR1 {
			break
		}
		ec := eng.CheckpointAll()
		if err := writeFileAtomic(*ckptPath, ec.Marshal()); err != nil {
			fmt.Fprintf(os.Stderr, "expectd: checkpoint: %v\n", err)
			continue
		}
		fmt.Printf("expectd: checkpointed %d sessions to %s\n", len(ec.Sessions), *ckptPath)
	}
	fmt.Printf("expectd: draining (grace %v)\n", *grace)

	// Tear the drive engine down first: its sessions resolve with ErrClosed
	// and the script unwinds, so the drain below only waits on the wire.
	if eng != nil {
		eng.Shutdown()
	}

	clean := true
	var served uint64
	nDrains := len(servers)
	if muxSrv != nil {
		nDrains++
	}
	done := make(chan bool, nDrains)
	for _, srv := range servers {
		srv := srv
		go func() { done <- srv.Shutdown(*grace) }()
	}
	if muxSrv != nil {
		// The gateway drains under the same contract: GOAWAY every muxed
		// connection, let in-flight streams finish within grace, cut only
		// at the deadline.
		go func() { done <- muxSrv.Shutdown(*grace) }()
	}
	for i := 0; i < nDrains; i++ {
		if !<-done {
			clean = false
		}
	}
	for _, srv := range servers {
		served += srv.Served()
	}
	if muxSrv != nil {
		served += muxSrv.Served()
	}
	// The admin listener closes LAST — after the wire has drained and the
	// final report is out — so /debug/sessions and /metrics stay readable
	// for the whole drain window (a scraper can watch the backlog fall).
	if clean {
		fmt.Printf("expectd: drained clean, served %d sessions\n", served)
		adminSrv.Close()
		os.Exit(0)
	}
	fmt.Printf("expectd: drain cut sessions at deadline, served %d sessions\n", served)
	adminSrv.Close()
	os.Exit(1)
}
