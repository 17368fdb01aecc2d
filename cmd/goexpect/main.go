// Command goexpect is the expect interpreter: it reads a script in the
// paper's dialect (Tcl plus spawn/send/expect/interact/…) and controls
// interactive programs with it.
//
// Usage:
//
//	goexpect script.exp [args...]      run a script file
//	goexpect -c "commands" [script]    run commands before the script
//	goexpect -transport pipe script    spawn over pipes instead of ptys
//	goexpect -network script           dial spawn targets as host:port
//	                                   socket sessions (see cmd/expectd)
//	goexpect -shards N script          own event-capable sessions with N
//	                                   sharded event loops instead of
//	                                   one pump goroutine per session
//	goexpect -evalmode classic script  pick the Tcl evaluation engine:
//	                                   vm (register bytecode with inline
//	                                   caches; the default) or classic
//	                                   (re-parse everything; the referee
//	                                   the vm is proven against)
//	goexpect -sims script              make the simulated programs
//	                                   (rogue-sim, chess-sim, eliza-sim,
//	                                   fsck-sim, tip-sim, passwd-sim,
//	                                   login-sim) spawnable by name
//	goexpect -stats script             print an engine metrics summary
//	                                   (sessions, phase shares, latency
//	                                   percentiles) on stderr at exit
//	goexpect -diag script              narrate the dialogue on stderr
//	                                   (exp_internal 1: received bytes,
//	                                   pattern attempts and verdicts);
//	                                   -diag -diag (or exp_internal 2
//	                                   in-script) adds engine internals
//
// Scripts see their arguments in the argv variable, paper-style
// ([index $argv 1] is the first argument). Scripts may also start with
// #! and be executed directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/programs/authsim"
	"repro/internal/programs/chess"
	"repro/internal/programs/eliza"
	"repro/internal/programs/fsck"
	"repro/internal/programs/ftpsim"
	"repro/internal/programs/modem"
	"repro/internal/programs/rogue"
	"repro/internal/pty"
	"repro/internal/tcl"
)

func main() {
	os.Exit(run())
}

// diagLevel is a counting boolean flag: -diag arms level 1 (the paper's
// §3.3 dialogue narration), -diag -diag level 2 (adds sends, evals,
// timers, match_max forgetting, injected faults). An explicit value
// (-diag=2) also works.
type diagLevel int

func (d *diagLevel) String() string { return strconv.Itoa(int(*d)) }

func (d *diagLevel) IsBoolFlag() bool { return true }

func (d *diagLevel) Set(v string) error {
	if v == "true" || v == "" {
		if *d < 2 {
			*d++
		}
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("diag level must be 0, 1, or 2, got %q", v)
	}
	if n < 0 || n > 2 {
		return fmt.Errorf("diag level must be 0, 1, or 2, got %d", n)
	}
	*d = diagLevel(n)
	return nil
}

func run() int {
	var (
		commands   = flag.String("c", "", "commands to execute before (or instead of) the script")
		transport  = flag.String("transport", "pty", `spawn transport: "pty", "pipe", or "network" (spawn targets are host:port addresses)`)
		network    = flag.Bool("network", false, `shorthand for -transport network: every spawn target is a host:port dialed over the socket transport (expectd serves the other end)`)
		sims       = flag.Bool("sims", false, "register the simulated interactive programs as spawnable names")
		quiet      = flag.Bool("q", false, "start with log_user 0 (script output only)")
		timeout    = flag.Int("timeout", 0, "override the initial timeout variable (seconds; 0 keeps the default 10)")
		shards     = flag.Int("shards", 0, "run sessions under a sharded scheduler with this many event loops (0 = one pump goroutine per session)")
		evalmode   = flag.String("evalmode", "vm", `Tcl evaluation engine: "vm" or "classic"`)
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile taken at exit to this file")
		stats      = flag.Bool("stats", false, "print an engine metrics summary (sessions, phase shares, latency percentiles) on stderr at exit")
	)
	var diag diagLevel
	flag.Var(&diag, "diag", "render exp_internal-style diagnostics on stderr (repeat for engine internals)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "goexpect: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "goexpect: cpuprofile: %v\n", err)
			return 1
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "goexpect: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "goexpect: memprofile: %v\n", err)
			}
		}()
	}

	if *network {
		*transport = "network"
	}
	if _, ok := tcl.ParseEvalMode(*evalmode); !ok {
		fmt.Fprintf(os.Stderr, "goexpect: -evalmode: unknown mode %q (want vm or classic)\n", *evalmode)
		return 2
	}
	logUser := !*quiet
	opts := core.EngineOptions{
		Transport: *transport,
		LogUser:   &logUser,
		Shards:    *shards,
		EvalMode:  *evalmode,
	}
	if *stats {
		// -stats needs a profiler from the first spawn so the phase and
		// latency families have observations by exit.
		opts.Prof = metrics.NewProfiler()
	}
	eng := core.NewEngine(opts)
	defer eng.Shutdown()
	if *stats {
		reg := metrics.NewRegistry()
		eng.RegisterMetrics(reg)
		defer fmt.Fprint(os.Stderr, reg.Summary())
	}
	if diag > 0 {
		// Same switch the script-level exp_internal command flips; the
		// flag just turns it on before the first spawn.
		eng.Recorder().SetDiag(int(diag), os.Stderr)
	}
	if *sims {
		registerSims(eng)
	}

	// argv holds the script name and its arguments, as in the paper's
	// callback.exp example.
	args := flag.Args()
	eng.Interp.GlobalSet("argv", tcl.FormList(args))
	if *timeout > 0 {
		eng.Interp.GlobalSet("timeout", fmt.Sprint(*timeout))
	}

	// Raw mode on the real terminal during the run makes interact faithful:
	// every keystroke passes through. Restore on exit.
	if pty.IsTerminal(os.Stdin) {
		if restore, err := pty.MakeRaw(os.Stdin); err == nil {
			defer restore()
		}
	}

	if *commands != "" {
		if _, err := eng.Run(*commands); err != nil {
			fmt.Fprintf(os.Stderr, "goexpect: -c: %v\n", err)
			return 1
		}
	}
	if len(args) > 0 {
		if _, err := eng.RunFile(args[0]); err != nil {
			fmt.Fprintf(os.Stderr, "goexpect: %v\n", err)
			if te, ok := err.(*tcl.TclError); ok && te.ErrorInfo != "" {
				fmt.Fprintln(os.Stderr, te.ErrorInfo)
			}
			return 1
		}
	} else if *commands == "" {
		fmt.Fprintln(os.Stderr, "usage: goexpect [-c commands] [-transport pty|pipe] [-sims] script [args...]")
		return 2
	}
	code, _ := eng.ExitCode()
	return code
}

// registerSims installs the simulated interactive programs so hermetic
// scripts can spawn them without separate binaries. EXPECT_SIM_LUCK_DEN
// tunes the rogue roll (default 16, the realistic odds; tests set 1 so
// the faithful timeout-per-bad-game loop doesn't dominate wall clock).
func registerSims(eng *core.Engine) {
	luckDen := 16
	if v, err := strconv.Atoi(os.Getenv("EXPECT_SIM_LUCK_DEN")); err == nil && v > 0 {
		luckDen = v
	}
	eng.RegisterVirtual("rogue-sim", rogue.New(rogue.Config{LuckNumerator: 1, LuckDenominator: luckDen}))
	eng.RegisterVirtual("chess-sim", chess.New(chess.Config{EngineSide: chess.Black}))
	eng.RegisterVirtual("chess-sim-white", chess.New(chess.Config{EngineSide: chess.White}))
	eng.RegisterVirtual("eliza-sim", eliza.New(eliza.Config{}))
	eng.RegisterVirtual("fsck-sim", fsck.New(fsck.Config{FS: fsck.Generate(time.Now().UnixNano(), 20, 100, 6)}))
	eng.RegisterVirtual("passwd-sim", authsim.NewPasswd(authsim.PasswdConfig{
		User:       os.Getenv("USER"),
		Dictionary: []string{"password", "dragon", "letmein", "qwerty"},
	}))
	eng.RegisterVirtual("login-sim", authsim.NewLogin(authsim.LoginConfig{
		Accounts: map[string]string{"guest": "guest", "don": "secret"},
	}))
	eng.RegisterVirtual("su-sim", authsim.NewSu(authsim.SuConfig{Password: "rootpw"}))
	eng.RegisterVirtual("crypt-sim", authsim.NewCrypt(authsim.CryptConfig{}))
	eng.RegisterVirtual("ftp-sim", ftpsim.New(ftpsim.Config{
		Interactive: true,
		Files: []ftpsim.File{
			{Name: "expect.shar.Z", Size: 81920},
			{Name: "README", Size: 1200},
		},
	}))
	eng.RegisterVirtual("tip-sim", modem.NewTip(modem.TipConfig{Modem: modem.Config{
		Directory: map[string]modem.Entry{
			"12016442332": {Result: modem.ResultConnect, Delay: 500 * time.Millisecond},
			"5550000":     {Result: modem.ResultBusy},
		},
		Default: modem.Entry{Result: modem.ResultNoCarrier, Delay: time.Second},
	}}))
}
