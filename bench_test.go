// Repo-level benchmarks: one per table/figure/claim in the paper's
// evaluation, mirroring the experiments package (see DESIGN.md §3 and
// EXPERIMENTS.md). `go test -bench=. -benchmem` regenerates every number;
// cmd/benchreport prints the same data as formatted tables.
package repro

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/programs/authsim"
	"repro/internal/programs/eliza"
	"repro/internal/programs/rogue"
	"repro/internal/tcl"
	"repro/internal/vt"
)

// --- E1: rogue throughput ("about 10 games per second", §7.4) ----------

func benchmarkRogue(b *testing.B, spawn func(cfg *core.Config, g int) (*core.Session, error)) {
	cfg := &core.Config{Timeout: 5 * time.Second}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := spawn(cfg, i)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.ExpectTimeout(5*time.Second,
			core.Glob("*Str: 18*"), core.TimeoutCase(), core.EOFCase()); err != nil {
			s.Close()
			b.Fatal(err)
		}
		s.Close()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "games/sec")
}

func BenchmarkRogueGamesPerSecondVirtual(b *testing.B) {
	benchmarkRogue(b, func(cfg *core.Config, g int) (*core.Session, error) {
		return core.SpawnProgram(cfg, "rogue",
			rogue.New(rogue.Config{Seed: int64(g + 1), LuckNumerator: 1, LuckDenominator: 1}))
	})
}

func BenchmarkRogueGamesPerSecondPipe(b *testing.B) {
	benchmarkRogue(b, func(cfg *core.Config, g int) (*core.Session, error) {
		return core.SpawnPipeCommand(cfg, "sh", "-c",
			`echo "Level: 1  Gold: 0  Hp: 12(12)  Str: 18(18)  Arm: 4  Exp: 1/0"; read line`)
	})
}

func BenchmarkRogueGamesPerSecondPty(b *testing.B) {
	benchmarkRogue(b, func(cfg *core.Config, g int) (*core.Session, error) {
		return core.SpawnCommand(cfg, "sh", "-c",
			`echo "Level: 1  Gold: 0  Hp: 12(12)  Str: 18(18)  Arm: 4  Exp: 1/0"; read line`)
	})
}

// --- E2: phase shares (§7.4's 40/26/16/8/5 table) -----------------------

func BenchmarkRoguePhaseBreakdown(b *testing.B) {
	prof := metrics.NewProfiler()
	cfg := &core.Config{Timeout: 5 * time.Second, Prof: prof}
	for i := 0; i < b.N; i++ {
		s, err := core.SpawnCommand(cfg, "sh", "-c",
			`echo "Level: 1  Gold: 0  Hp: 12(12)  Str: 18(18)  Arm: 4  Exp: 1/0"; read line`)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.ExpectTimeout(5*time.Second,
			core.Glob("*Str: 18*"), core.TimeoutCase(), core.EOFCase()); err != nil {
			s.Close()
			b.Fatal(err)
		}
		s.Close()
	}
	for _, s := range prof.Snapshot() {
		name := strings.NewReplacer(" ", "_", "/", "_", "(", "", ")", "").Replace(s.Phase.String())
		b.ReportMetric(s.Share*100, "pct_"+name)
	}
}

// --- E4: match_max bounded buffer (§3.1) --------------------------------

func BenchmarkMatchBufferAppend(b *testing.B) {
	for _, mm := range []int{512, 2000, 8192} {
		b.Run(fmt.Sprintf("match_max=%d", mm), func(b *testing.B) {
			payload := strings.Repeat("x", 4096)
			s, err := core.SpawnProgram(&core.Config{MatchMax: mm}, "torrent",
				func(stdin io.Reader, stdout io.Writer) error {
					for {
						if _, err := io.WriteString(stdout, payload); err != nil {
							return nil
						}
					}
				})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			var total int64
			for total < int64(b.N)*int64(len(payload)) {
				time.Sleep(100 * time.Microsecond)
				total = s.TotalSeen()
			}
			b.SetBytes(int64(len(payload)))
			if got := len(s.Buffer()); got > mm {
				b.Fatalf("buffer %d exceeds match_max %d", got, mm)
			}
		})
	}
}

// --- E5: rescan vs incremental matching (§7.4 open question) ------------

func matcherStream(n int) string {
	return strings.Repeat("x", n-8) + "Str: 18\n"
}

func BenchmarkMatcherRescan(b *testing.B) {
	for _, n := range []int{2000, 8000, 32000} {
		for _, c := range []int{1, 16, 256} {
			b.Run(fmt.Sprintf("n=%d/c=%d", n, c), func(b *testing.B) {
				stream := matcherStream(n)
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					for pos := 0; pos < len(stream); pos += c {
						end := pos + c
						if end > len(stream) {
							end = len(stream)
						}
						pattern.Match("*Str: 18*", stream[:end])
					}
				}
			})
		}
	}
}

func BenchmarkMatcherIncremental(b *testing.B) {
	for _, n := range []int{2000, 8000, 32000} {
		for _, c := range []int{1, 16, 256} {
			b.Run(fmt.Sprintf("n=%d/c=%d", n, c), func(b *testing.B) {
				stream := matcherStream(n)
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					m := pattern.NewIncremental("*Str: 18*")
					for pos := 0; pos < len(stream); pos += c {
						end := pos + c
						if end > len(stream) {
							end = len(stream)
						}
						m.Feed([]byte(stream[pos:end]))
					}
				}
			})
		}
	}
}

// --- E6: select across N processes (Figure 5, §7.2) ---------------------

func BenchmarkSelectNProcesses(b *testing.B) {
	for _, n := range []int{1, 5, 10, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sessions := make([]*core.Session, n)
			for i := range sessions {
				s, err := core.SpawnProgram(nil, fmt.Sprintf("peer%d", i),
					func(stdin io.Reader, stdout io.Writer) error {
						buf := make([]byte, 256)
						for {
							k, err := stdin.Read(buf)
							if err != nil {
								return nil
							}
							if _, err := stdout.Write(buf[:k]); err != nil {
								return nil
							}
						}
					})
				if err != nil {
					b.Fatal(err)
				}
				sessions[i] = s
			}
			defer func() {
				for _, s := range sessions {
					s.Close()
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target := sessions[i%n]
				if err := target.Send("ping\n"); err != nil {
					b.Fatal(err)
				}
				ready := core.Select(5*time.Second, sessions...)
				if len(ready) == 0 {
					b.Fatal("select timeout")
				}
				if _, err := target.ExpectTimeout(5*time.Second, core.Glob("*ping*")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: flushing programs (§5.4) ---------------------------------------

func BenchmarkFlushBaselineVsExpect(b *testing.B) {
	run := func(b *testing.B, paced bool) int {
		const commands = 3
		var mu sync.Mutex
		processed := 0
		prog := authsim.NewFlusher(authsim.FlusherConfig{
			Commands:  commands,
			ThinkTime: 2 * time.Millisecond,
			OnProcessed: func(string) {
				mu.Lock()
				processed++
				mu.Unlock()
			},
		})
		s, err := core.SpawnProgram(nil, "rn", prog)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if paced {
			for i := 0; i < commands; i++ {
				if _, err := s.ExpectTimeout(5*time.Second, core.Glob("*Command*> *")); err != nil {
					b.Fatal(err)
				}
				s.Send("cmd\n")
			}
		} else {
			s.Send("cmd\ncmd\ncmd\n")
			s.CloseWrite()
		}
		if _, err := s.ExpectTimeout(10*time.Second, core.Glob("*processed*"), core.EOFCase()); err != nil {
			b.Fatal(err)
		}
		s.Wait()
		mu.Lock()
		defer mu.Unlock()
		return processed
	}
	b.Run("blind", func(b *testing.B) {
		lost := 0
		for i := 0; i < b.N; i++ {
			lost += 3 - run(b, false)
		}
		b.ReportMetric(float64(lost)/float64(b.N), "lost/run")
	})
	b.Run("expect-paced", func(b *testing.B) {
		lost := 0
		for i := 0; i < b.N; i++ {
			lost += 3 - run(b, true)
		}
		b.ReportMetric(float64(lost)/float64(b.N), "lost/run")
	})
}

// --- E8: expect vs human (§7.4) -----------------------------------------

func BenchmarkExpectVsHumanDialogue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		login := authsim.NewLogin(authsim.LoginConfig{
			Accounts: map[string]string{"don": "secret"},
		})
		s, err := core.SpawnProgram(&core.Config{Timeout: 5 * time.Second}, "login", login)
		if err != nil {
			b.Fatal(err)
		}
		steps := []struct{ pat, reply string }{
			{"*login:*", "don\n"},
			{"*Password:*", "secret\n"},
			{"*$ *", "who\n"},
			{"*$ *", "logout\n"},
		}
		for _, st := range steps {
			if _, err := s.ExpectMatch(st.pat); err != nil {
				b.Fatal(err)
			}
			s.Send(st.reply)
		}
		s.ExpectTimeout(2*time.Second, core.Glob("*logout*"), core.EOFCase())
		s.Close()
	}
	// 22 keystrokes at 280 ms plus 4 s of think time ≈ a 10-second human.
	human := 22*0.280 + 4*1.0
	perOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(human/perOp, "speedup_vs_human")
}

// --- E9: pipe interposition (§5.9) ---------------------------------------

func BenchmarkPipeDirectVsInterposed(b *testing.B) {
	const payload = 1 << 20
	producer := func(stdin io.Reader, stdout io.Writer) error {
		chunk := make([]byte, 32*1024)
		sent := 0
		for sent < payload {
			if _, err := stdout.Write(chunk); err != nil {
				return nil
			}
			sent += len(chunk)
		}
		return nil
	}
	b.Run("direct", func(b *testing.B) {
		b.SetBytes(payload)
		for i := 0; i < b.N; i++ {
			s, err := core.SpawnProgram(&core.Config{MatchMax: payload + 1}, "p", producer)
			if err != nil {
				b.Fatal(err)
			}
			for s.TotalSeen() < payload {
				time.Sleep(50 * time.Microsecond)
			}
			s.Close()
		}
	})
	b.Run("interposed", func(b *testing.B) {
		b.SetBytes(payload)
		for i := 0; i < b.N; i++ {
			s, err := core.SpawnProgram(&core.Config{MatchMax: payload + 1}, "p", producer)
			if err != nil {
				b.Fatal(err)
			}
			moved := 0
			for moved < payload {
				r, err := s.ExpectTimeout(10*time.Second, core.Regexp(`(?s).+`), core.EOFCase())
				if err != nil {
					b.Fatal(err)
				}
				moved += len(r.Text)
				if r.Eof {
					break
				}
			}
			s.Close()
		}
	})
}

func BenchmarkFanOut(b *testing.B) {
	// One producer relayed to k sinks — the tee superset of §5.9.
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			const payload = 256 << 10
			b.SetBytes(payload)
			for i := 0; i < b.N; i++ {
				s, err := core.SpawnProgram(&core.Config{MatchMax: payload + 1}, "p",
					func(stdin io.Reader, stdout io.Writer) error {
						chunk := make([]byte, 32*1024)
						for sent := 0; sent < payload; sent += len(chunk) {
							if _, err := stdout.Write(chunk); err != nil {
								return nil
							}
						}
						return nil
					})
				if err != nil {
					b.Fatal(err)
				}
				sinks := make([][]byte, k)
				moved := 0
				for moved < payload {
					r, err := s.ExpectTimeout(10*time.Second, core.Regexp(`(?s).+`), core.EOFCase())
					if err != nil {
						b.Fatal(err)
					}
					for j := range sinks {
						sinks[j] = append(sinks[j][:0], r.Text...)
					}
					moved += len(r.Text)
					if r.Eof {
						break
					}
				}
				s.Close()
			}
		})
	}
}

// --- E12: baseline comparison (§7.1, §9) ---------------------------------

func BenchmarkChatVsExpectLogin(b *testing.B) {
	b.Run("expect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			login := authsim.NewLogin(authsim.LoginConfig{
				Accounts: map[string]string{"uucp": "secret"},
			})
			s, err := core.SpawnProgram(&core.Config{Timeout: 5 * time.Second}, "login", login)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.ExpectMatch("*login:*"); err != nil {
				b.Fatal(err)
			}
			s.Send("uucp\n")
			if _, err := s.ExpectMatch("*Password:*"); err != nil {
				b.Fatal(err)
			}
			s.Send("secret\n")
			if _, err := s.ExpectMatch("*Welcome*"); err != nil {
				b.Fatal(err)
			}
			s.Close()
		}
	})
}

// --- E14: the paper's scripts through the full interpreter ---------------

func BenchmarkPaperRogueScript(b *testing.B) {
	off := false
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(core.EngineOptions{
			UserIn:  strings.NewReader(""),
			UserOut: io.Discard,
			LogUser: &off,
		})
		eng.RegisterVirtual("rogue", rogue.New(rogue.Config{
			Seed: int64(i + 1), LuckNumerator: 1, LuckDenominator: 1,
		}))
		_, err := eng.Run(`
			set timeout 3
			for {} 1 {} {
				spawn rogue
				expect {*Str:\ 18*} break \
					timeout close
			}
		`)
		if err != nil {
			b.Fatal(err)
		}
		eng.Shutdown()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "games/sec")
}

// --- language microbenchmarks (the substrate the engine pays for) --------

func BenchmarkTclEvalSet(b *testing.B) {
	i := tcl.New()
	b.ReportAllocs()
	for k := 0; k < b.N; k++ {
		if _, err := i.Eval(`set a 5`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTclExpr(b *testing.B) {
	i := tcl.New()
	i.SetVar("x", "21")
	for k := 0; k < b.N; k++ {
		if _, err := i.Eval(`expr {$x * 2 + 1}`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTclProcCall(b *testing.B) {
	i := tcl.New()
	if _, err := i.Eval(`proc add {a b} {expr $a+$b}`); err != nil {
		b.Fatal(err)
	}
	for k := 0; k < b.N; k++ {
		if _, err := i.Eval(`add 2 3`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTclPaperFactorial(b *testing.B) {
	i := tcl.New()
	if _, err := i.Eval(`proc fac x {
		if {$x == 1} {return 1}
		return [expr {$x * [fac [expr $x-1]]}]
	}`); err != nil {
		b.Fatal(err)
	}
	for k := 0; k < b.N; k++ {
		if _, err := i.Eval(`fac 10`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGlobMatchStatusLine(b *testing.B) {
	line := "Level: 1  Gold: 0  Hp: 12(12)  Str: 18(18)  Arm: 4  Exp: 1/0"
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		if !pattern.Match("*Str: 18*", line) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkElizaRespond(b *testing.B) {
	e := eliza.NewEngine(1)
	for i := 0; i < b.N; i++ {
		e.Respond("i am very unhappy about my computer")
	}
}

// --- §8 extensions: terminal emulator and combined expect/select ---------

func BenchmarkVTScreenWrite(b *testing.B) {
	// One full curses repaint of a 24×80 screen per iteration.
	frame := func() []byte {
		var sb strings.Builder
		sb.WriteString("\x1b[2J\x1b[H")
		for r := 1; r <= 23; r++ {
			fmt.Fprintf(&sb, "\x1b[%d;1H%s", r, strings.Repeat(".", 79))
		}
		sb.WriteString("\x1b[24;1HLevel: 1  Gold: 0  Hp: 12(12)  Str: 18(18)  Arm: 4  Exp: 1/0")
		return []byte(sb.String())
	}()
	s := vt.NewScreen(24, 80)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Write(frame)
	}
}

func BenchmarkVTRegionExtract(b *testing.B) {
	s := vt.NewScreen(24, 80)
	s.Write([]byte("\x1b[24;1HLevel: 1  Gold: 0  Hp: 12(12)  Str: 18(18)  Arm: 4  Exp: 1/0"))
	for i := 0; i < b.N; i++ {
		if !strings.Contains(s.Region(23, 0, 23, 79), "Str: 18") {
			b.Fatal("region lost")
		}
	}
}

func BenchmarkExpectAnyFanIn(b *testing.B) {
	// Combined expect/select across 8 sessions, each answering in turn.
	const n = 8
	sessions := make([]*core.Session, n)
	for i := range sessions {
		s, err := core.SpawnProgram(nil, fmt.Sprintf("peer%d", i),
			func(stdin io.Reader, stdout io.Writer) error {
				buf := make([]byte, 64)
				for {
					k, err := stdin.Read(buf)
					if err != nil {
						return nil
					}
					stdout.Write(buf[:k])
				}
			})
		if err != nil {
			b.Fatal(err)
		}
		sessions[i] = s
	}
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := sessions[i%n]
		target.Send("tick\n")
		winner, _, err := core.ExpectAny(5*time.Second, sessions, core.Glob("*tick*"))
		if err != nil {
			b.Fatal(err)
		}
		if winner != target {
			b.Fatalf("wrong winner %s", winner.Name())
		}
	}
}

// --- E15: hot-path compilation caches (parse-once Tcl, compiled globs,
// gap-buffer match_max) ---------------------------------------------------

// hotScript is a loop-and-branch script shaped like real expect dialogue
// glue: every iteration re-evaluates the same body text.
const hotScript = `set total 0
foreach n {1 2 3 4 5 6 7 8} {
	if {$n % 2 == 0} {
		set total [expr {$total + $n * 3}]
	} else {
		set log "skip $n"
	}
}
set total`

func BenchmarkEvalCacheHit(b *testing.B) {
	i := tcl.New()
	if _, err := i.Eval(hotScript); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for k := 0; k < b.N; k++ {
		if _, err := i.Eval(hotScript); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalCacheMiss(b *testing.B) {
	// The classic evaluator: every evaluation re-parses the script text,
	// the seed implementation's behaviour.
	i := tcl.New()
	i.SetEvalMode(tcl.EvalClassic)
	if _, err := i.Eval(hotScript); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for k := 0; k < b.N; k++ {
		if _, err := i.Eval(hotScript); err != nil {
			b.Fatal(err)
		}
	}
}

const hotExpr = `($x * 2 + 100 / $y) > 50 && $x % 7 <= 3 || !($y == 3)`

func BenchmarkExprASTCached(b *testing.B) {
	i := tcl.New()
	i.SetVar("x", "21")
	i.SetVar("y", "3")
	if _, res := i.ExprString(hotExpr); res.Code != tcl.OK {
		b.Fatal(res.Value)
	}
	b.ReportAllocs()
	for k := 0; k < b.N; k++ {
		if _, res := i.ExprString(hotExpr); res.Code != tcl.OK {
			b.Fatal(res.Value)
		}
	}
}

func BenchmarkExprASTReparse(b *testing.B) {
	i := tcl.New()
	i.SetEvalMode(tcl.EvalClassic)
	i.SetVar("x", "21")
	i.SetVar("y", "3")
	if _, res := i.ExprString(hotExpr); res.Code != tcl.OK {
		b.Fatal(res.Value)
	}
	b.ReportAllocs()
	for k := 0; k < b.N; k++ {
		if _, res := i.ExprString(hotExpr); res.Code != tcl.OK {
			b.Fatal(res.Value)
		}
	}
}

// globBenchText matches only at the tail, so the leading star sweeps the
// whole buffer. The star is followed immediately by a character class: the
// naive matcher re-parses the class text at every position it tries, while
// the compiled program tests one bitset per position.
var globBenchText = strings.Repeat("all quiet on the eastern interface, nothing to report\n", 38) +
	"error 407: tail marker\n"

const globBenchPat = `*[0-9][0-9][0-9]: tail marker*`

func BenchmarkCompiledGlob(b *testing.B) {
	c := pattern.CompileGlob(globBenchPat)
	buf := []byte(globBenchText)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for k := 0; k < b.N; k++ {
		if !c.Match(buf) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkCompiledGlobNaive(b *testing.B) {
	// The seed matcher: re-lexes the pattern (character classes included)
	// at every position it tries.
	b.SetBytes(int64(len(globBenchText)))
	b.ReportAllocs()
	for k := 0; k < b.N; k++ {
		if !pattern.MatchNaive(globBenchPat, globBenchText) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkRingBufferExpectTorrent(b *testing.B) {
	// End-to-end: a 256 KiB torrent squeezed through the default 2000-byte
	// match buffer, matched at the tail. The gap buffer forgets overflow in
	// O(1); the seed copied the whole buffer down on every overflowing read.
	const streamLen = 256 * 1024
	payload := strings.Repeat("x", streamLen)
	b.SetBytes(streamLen)
	b.ReportAllocs()
	for k := 0; k < b.N; k++ {
		s, err := core.SpawnProgram(nil, "torrent", func(stdin io.Reader, stdout io.Writer) error {
			io.WriteString(stdout, payload)
			io.WriteString(stdout, " TAIL-MARKER")
			io.Copy(io.Discard, stdin)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.ExpectTimeout(10*time.Second, core.Glob("*TAIL-MARKER*")); err != nil {
			s.Close()
			b.Fatal(err)
		}
		s.Close()
	}
}

func BenchmarkRingBufferCopyShiftReference(b *testing.B) {
	// The seed's match_max enforcement, preserved here as the baseline the
	// gap buffer replaces (see internal/core BenchmarkRingBufferGapAppend
	// for the direct micro comparison).
	const max = core.DefaultMatchMax
	chunk := []byte(strings.Repeat("x", 64))
	var buf []byte
	b.SetBytes(int64(len(chunk)))
	for k := 0; k < b.N; k++ {
		buf = append(buf, chunk...)
		if over := len(buf) - max; over > 0 {
			buf = append(buf[:0:0], buf[over:]...)
		}
	}
}
