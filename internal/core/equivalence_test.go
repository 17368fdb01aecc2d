package core

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/pattern"
	"repro/internal/tcl"
)

// chunkedEmitter writes text in the given chunk sizes with tiny pauses, so
// the pump observes many small reads — the §7.4 slow-arrival regime.
func chunkedEmitter(text string, chunks []int) func(io.Reader, io.Writer) error {
	return func(stdin io.Reader, stdout io.Writer) error {
		pos := 0
		ci := 0
		for pos < len(text) {
			n := 1
			if len(chunks) > 0 {
				n = chunks[ci%len(chunks)]
				ci++
			}
			if n < 1 {
				n = 1
			}
			if pos+n > len(text) {
				n = len(text) - pos
			}
			if _, err := io.WriteString(stdout, text[pos:pos+n]); err != nil {
				return nil
			}
			pos += n
			time.Sleep(200 * time.Microsecond)
		}
		io.Copy(io.Discard, stdin)
		return nil
	}
}

// TestMatcherModesEquivalentQuick is the engine-level equivalence
// property behind E5: for random dialogue text and random chunkings, the
// rescanning and incremental matchers must fire the same case with the
// same matched text.
func TestMatcherModesEquivalentQuick(t *testing.T) {
	words := []string{"login:", "Password:", "busy", "welcome", "noise", "xyz ", "-- "}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		for k := 0; k < 3+r.Intn(10); k++ {
			sb.WriteString(words[r.Intn(len(words))])
		}
		text := sb.String()
		chunks := make([]int, 1+r.Intn(4))
		for i := range chunks {
			chunks[i] = 1 + r.Intn(5)
		}
		cases := []Case{
			Glob("*welcome*"),
			Glob("*busy*"),
			Glob("*Password:*"),
		}
		run := func(mode MatcherMode) (int, string, error) {
			s, err := SpawnProgram(&Config{Matcher: mode}, "emitter",
				chunkedEmitter(text, chunks))
			if err != nil {
				return 0, "", err
			}
			defer s.Close()
			res, err := s.ExpectTimeout(time.Second, cases...)
			if err != nil {
				return -1, "", nil // no pattern present in text: both must agree
			}
			return res.Index, res.Text, nil
		}
		ri, rt, err1 := run(MatcherRescan)
		ii, it, err2 := run(MatcherIncremental)
		if err1 != nil || err2 != nil {
			t.Logf("spawn errors: %v %v", err1, err2)
			return false
		}
		// Both modes must agree on whether a match exists at all.
		if (ri >= 0) != (ii >= 0) {
			t.Logf("text=%q chunks=%v: rescan case %d vs incremental case %d", text, chunks, ri, ii)
			return false
		}
		// Each run's match must be a prefix of the emitted stream on which
		// its winning pattern holds. (Exact case/text equality across the
		// two runs would require identical pump scheduling — when several
		// patterns appear in the stream, chunk coalescing legitimately
		// decides which fires first.)
		for _, m := range []struct {
			idx  int
			text string
		}{{ri, rt}, {ii, it}} {
			if m.idx < 0 {
				continue
			}
			if !strings.HasPrefix(text, m.text) {
				t.Logf("match %q is not a prefix of %q", m.text, text)
				return false
			}
			if !pattern.Match(cases[m.idx].Pattern, m.text) {
				t.Logf("match %q does not satisfy %q", m.text, cases[m.idx].Pattern)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCompiledGlobEngineEquivalentQuick cross-checks the compiled-pattern
// fast path against the naive reference matcher through the full engine:
// for random dialogue text delivered in random chunkings, whatever case
// Expect declares the winner must be exactly the case the naive matcher
// picks for the matched text — same result, same case index.
func TestCompiledGlobEngineEquivalentQuick(t *testing.T) {
	words := []string{"login:", "Password:", "busy", "welcome", "noise", "[ok] ", "q?x ", "-- "}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		for k := 0; k < 3+r.Intn(10); k++ {
			sb.WriteString(words[r.Intn(len(words))])
		}
		text := sb.String()
		chunks := make([]int, 1+r.Intn(4))
		for i := range chunks {
			chunks[i] = 1 + r.Intn(5)
		}
		cases := []Case{
			Glob("*welcome*"),
			Glob("*bus[xyz]*"),
			Glob("*Password:*"),
			Glob("*q?x*"),
		}
		s, err := SpawnProgram(nil, "emitter", chunkedEmitter(text, chunks))
		if err != nil {
			t.Log(err)
			return false
		}
		defer s.Close()
		res, err := s.ExpectTimeout(time.Second, cases...)
		if err != nil {
			// No pattern in the stream: the naive matcher must agree that
			// nothing matches the full text.
			for _, c := range cases {
				if pattern.MatchNaive(c.Pattern, text) {
					t.Logf("text=%q: engine timed out but naive matches %q", text, c.Pattern)
					return false
				}
			}
			return true
		}
		// The winner must hold under the naive matcher...
		if !pattern.MatchNaive(cases[res.Index].Pattern, res.Text) {
			t.Logf("text=%q: case %d matched %q but naive disagrees", text, res.Index, res.Text)
			return false
		}
		// ...and every higher-priority case must fail on the same text,
		// otherwise the compiled scan picked a different index than a naive
		// scan of the same wakeup would have.
		for j := 0; j < res.Index; j++ {
			if pattern.MatchNaive(cases[j].Pattern, res.Text) {
				t.Logf("text=%q: case %d won but naive prefers case %d on %q",
					text, res.Index, j, res.Text)
				return false
			}
		}
		return strings.HasPrefix(text, res.Text)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEngineCachedUncachedEquivalentQuick runs one randomly assembled
// expect script through two engines — the default vm and the classic
// evaluator (the seed's parse-as-you-go path) — against the same virtual
// program, and requires identical results and identical state.
func TestEngineCachedUncachedEquivalentQuick(t *testing.T) {
	pieces := []string{
		`set a [expr {$a * 2 + 1}]`,
		`for {set i 0} {$i < 4} {incr i} { set a [expr {$a + $i}] }`,
		`proc twice x {expr {$x + $x}}; set a [twice $a]`,
		`if {$a % 2 == 0} { set b even } else { set b odd }`,
		`foreach w {alpha beta gamma} { set b "$b-$w" }`,
		`set msg "a=$a b=$b"`,
		`send probe\n`,
		`expect {*echo:*} {set b "saw-echo"}`,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		sb.WriteString("set timeout 5\nset a 3\nset b start\nspawn echoer\nexpect {*ready*} {}\n")
		for k := 0; k < 3+r.Intn(6); k++ {
			sb.WriteString(pieces[r.Intn(len(pieces))])
			sb.WriteByte('\n')
		}
		sb.WriteString(`set out "$a|$b"`)
		script := sb.String()

		run := func(vm bool) (string, string) {
			var userOut lockedBuffer
			off := false
			e := NewEngine(EngineOptions{UserOut: &userOut, LogUser: &off})
			defer e.Shutdown()
			if !vm {
				e.Interp.SetEvalMode(tcl.EvalClassic)
			}
			e.RegisterVirtual("echoer", lineServer("ready\n", func(line string) (string, bool) {
				return "echo: " + line + "\n", true
			}))
			out, err := e.Run(script)
			if err != nil {
				return out, err.Error()
			}
			return out, ""
		}
		co, ce := run(true)
		uo, ue := run(false)
		if co != uo || ce != ue {
			t.Logf("script:\n%s\nvm      = (%q, %q)\nclassic = (%q, %q)", script, co, ce, uo, ue)
			return false
		}
		return true
	}
	n := 8
	if testing.Short() {
		n = 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Error(err)
	}
}
