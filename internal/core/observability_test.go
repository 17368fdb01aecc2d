package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/tcl"
	"repro/internal/trace"
)

// The observability layer's session-level contract: incidents (timeouts,
// surprise EOFs) surface as rich errors carrying elapsed time, the
// unmatched buffer tail, and the bounded JSONL flight dump — and the
// instrumentation costs nothing when the recorder is disabled.

func spawnTraced(t *testing.T, rec *trace.Recorder, program func(io.Reader, io.Writer) error) *Session {
	t.Helper()
	s, err := SpawnProgram(&Config{Rec: rec, SID: 7}, "traced", program)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestForcedTimeoutDumpHasUnmatchedAttempts(t *testing.T) {
	rec := trace.New(0)
	rec.SetRecording(true)
	s := spawnTraced(t, rec, func(stdin io.Reader, stdout io.Writer) error {
		io.WriteString(stdout, "a wall of unrelated chatter, no prompt here")
		io.Copy(io.Discard, stdin)
		return nil
	})

	start := time.Now()
	_, err := s.ExpectTimeout(300*time.Millisecond, Exact("NEVER-APPEARS"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	var ee *ExpectError
	if !errors.As(err, &ee) {
		t.Fatalf("err %T does not unwrap to *ExpectError", err)
	}
	if ee.Elapsed < 300*time.Millisecond || ee.Elapsed > time.Since(start)+time.Second {
		t.Errorf("Elapsed = %s, want >= the 300ms deadline", ee.Elapsed)
	}
	if !strings.Contains(ee.BufferTail, "no prompt here") {
		t.Errorf("BufferTail = %q, want the unmatched tail", ee.BufferTail)
	}
	msg := err.Error()
	for _, want := range []string{"after", "unmatched buffer", "spawn_id 7"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message missing %q: %s", want, msg)
		}
	}

	events, perr := trace.ParseJSONL(ee.Dump)
	if perr != nil {
		t.Fatalf("dump is not parseable JSONL: %v", perr)
	}
	attempts, timeouts := 0, 0
	for _, e := range events {
		switch e.Kind {
		case "attempt":
			if e.OK {
				t.Errorf("attempt marked matched in a timed-out expect: %+v", e)
			}
			if e.Text != "NEVER-APPEARS" {
				t.Errorf("attempt pattern = %q, want NEVER-APPEARS", e.Text)
			}
			attempts++
		case "timeout":
			timeouts++
		}
	}
	if attempts == 0 {
		t.Error("dump has no unmatched pattern attempts")
	}
	if timeouts == 0 {
		t.Error("dump has no timeout event")
	}
}

func TestSurpriseEOFErrorCarriesDiagnostics(t *testing.T) {
	rec := trace.New(0)
	rec.SetRecording(true)
	s := spawnTraced(t, rec, func(stdin io.Reader, stdout io.Writer) error {
		io.WriteString(stdout, "user na") // hangs up mid-pattern
		return nil
	})

	_, err := s.ExpectTimeout(5*time.Second, Glob("*username:*"))
	if !errors.Is(err, ErrEOF) {
		t.Fatalf("err = %v, want ErrEOF", err)
	}
	var ee *ExpectError
	if !errors.As(err, &ee) {
		t.Fatalf("err %T does not unwrap to *ExpectError", err)
	}
	if !strings.Contains(ee.BufferTail, "user na") {
		t.Errorf("BufferTail = %q, want the partial pattern", ee.BufferTail)
	}
	events, perr := trace.ParseJSONL(ee.Dump)
	if perr != nil {
		t.Fatalf("dump: %v", perr)
	}
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, want := range []string{"spawn", "read", "attempt", "eof"} {
		if kinds[want] == 0 {
			t.Errorf("dump missing %q events; got %v", want, kinds)
		}
	}
}

func TestExpInternalMidScript(t *testing.T) {
	e, _ := newTestEngine(t)
	e.RegisterVirtual("phased", lineServer("phase-one\n", func(line string) (string, bool) {
		return "phase-two\n", true
	}))
	var diag lockedBuffer
	e.Interp.Stderr = &diag
	_, err := e.Run(`
		set timeout 5
		spawn phased
		exp_internal 1
		expect {*phase-one*} {}
		exp_internal 0
		send go\n
		expect {*phase-two*} {}
	`)
	if err != nil {
		t.Fatal(err)
	}
	out := diag.String()
	if !strings.Contains(out, `match pattern "*phase-one*"`) {
		t.Errorf("diag missed the attempt while exp_internal was on:\n%s", out)
	}
	if strings.Contains(out, "phase-two") {
		t.Errorf("diag leaked events after exp_internal 0:\n%s", out)
	}

	// Bad arguments are script errors, same as real expect.
	for _, bad := range []string{`exp_internal`, `exp_internal 3`, `exp_internal x`} {
		if _, err := e.Run(bad); err == nil {
			t.Errorf("%q succeeded, want error", bad)
		}
	}
}

func TestLogFileAndDiagFanOut(t *testing.T) {
	// log_file and exp_internal observe the same dialogue through two
	// independent taps; turning both on must duplicate nothing and lose
	// nothing on either stream.
	e, _ := newTestEngine(t)
	e.RegisterVirtual("p", greeter("FAN-OUT-BANNER"))
	var diag lockedBuffer
	e.Interp.Stderr = &diag
	path := t.TempDir() + "/fan.log"
	_, err := e.Run(`
		exp_internal 1
		log_file ` + path + `
		set timeout 5
		spawn p
		expect {*login:*} {}
		log_file
		exp_internal 0
	`)
	if err != nil {
		t.Fatal(err)
	}
	logged, _ := readFileString(path)
	if !strings.Contains(logged, "FAN-OUT-BANNER") {
		t.Errorf("log_file missed the dialogue: %q", logged)
	}
	out := diag.String()
	if !strings.Contains(out, `match pattern "*login:*"`) {
		t.Errorf("diag stream missed the attempt:\n%s", out)
	}
	if strings.Contains(logged, "match pattern") {
		t.Errorf("diagnostics leaked into the dialogue log: %q", logged)
	}
}

func TestDisabledRecorderWakeupAllocationFree(t *testing.T) {
	// The wakeup hot path with a present-but-disabled recorder: the mode
	// check plus the untraced scan, exactly as ExpectTimeout runs them.
	s := &Session{rec: trace.New(0), sid: 3}
	cases := []Case{Glob("*NEEDLE[0-9]*"), Exact("also absent")}
	prepareCases(cases, nil)
	buf := bytes.Repeat([]byte("abcdefgh"), 8*1024)
	if allocs := testing.AllocsPerRun(100, func() {
		var idx int
		if s.rec.On() {
			idx, _ = s.scanCasesTraced(buf, cases, false)
		} else {
			idx, _ = scanCases(buf, cases, false)
		}
		if idx >= 0 {
			t.Fatal("unexpected match")
		}
	}); allocs > 0 {
		t.Errorf("disabled-recorder wakeup allocates %.1f objects, want 0", allocs)
	}
}

func TestEngineDefaultRecorderAlwaysArmed(t *testing.T) {
	// Engines arm ring recording by default so incident dumps always
	// exist; exp_internal 0 must stop narration without stopping the ring.
	e, _ := newTestEngine(t)
	rec := e.Recorder()
	if rec == nil || !rec.Recording() {
		t.Fatal("engine recorder not armed by default")
	}
	e.RegisterVirtual("p", greeter("ARMED"))
	if _, err := e.Run(`
		set timeout 5
		spawn p
		expect {*login:*} {}
	`); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseJSONL(rec.Dump(64))
	if err != nil || len(events) == 0 {
		t.Fatalf("default recorder captured nothing (err=%v)", err)
	}
	kinds := map[string]bool{}
	for _, ev := range events {
		kinds[ev.Kind] = true
	}
	for _, want := range []string{"spawn", "read", "match", "eval"} {
		if !kinds[want] {
			t.Errorf("default recording missing %q events; got %v", want, kinds)
		}
	}
}

// TestEvalEventsModeNeutral drives one scripted dialogue under each
// evaluation mode and requires the same KindEval (depth, command name)
// sequence in the flight recorder: the vm reports the dispatches its
// specialized fast paths run through the same DispatchHook as generic
// dispatch. Each event is stamped with its dispatch's end reading, so
// the eval events' stamps never run backwards. Unwatched, the ring holds
// the seeded sample, which both modes take at the same ordinals; the
// watched leg (diagnostics level 2) holds every dispatch.
func TestEvalEventsModeNeutral(t *testing.T) {
	const script = `
		set timeout 5
		proc shout {w} {
			set out ""
			foreach c [split $w ""] { append out [string toupper $c] }
			return $out
		}
		spawn echo
		set n 0
		set sum 0
		while {$n < 3} {
			incr n
			set line [shout "w$n"]
			send "$line\n"
			expect "*echo:$line*" {
				set sum [expr {$sum + $n}]
			} timeout {
				error "timeout waiting for $line"
			}
			if {$n % 2} { set parity odd } else { set parity even }
		}
		foreach k {a b} { set last $k }
		set sum
	`
	evals := func(mode string, watched bool) []string {
		rec := trace.New(4096)
		rec.SetRecording(true)
		if watched {
			rec.SetDiag(2, io.Discard)
		}
		off := false
		e := NewEngine(EngineOptions{
			UserIn: strings.NewReader(""), UserOut: io.Discard, LogUser: &off,
			Rec: rec, EvalMode: mode,
		})
		defer e.Shutdown()
		e.RegisterVirtual("echo", lineServer("", func(line string) (string, bool) {
			return "echo:" + line + "\n", true
		}))
		if out, err := e.Run(script); err != nil || out != "6" {
			t.Fatalf("%s: %q, %v", mode, out, err)
		}
		if got := e.Interp.EvalMode().String(); got != mode {
			t.Fatalf("engine runs %s, asked for %s", got, mode)
		}
		if rec.Total() > uint64(rec.Cap()) {
			t.Fatalf("%s: ring wrapped (%d events)", mode, rec.Total())
		}
		var seq []string
		var last int64
		for _, ev := range rec.Events() {
			if ev.Kind != trace.KindEval {
				continue
			}
			seq = append(seq, fmt.Sprintf("%d:%s", ev.B, ev.Text()))
			if ev.At < last {
				t.Errorf("%s: eval event %d (%s) stamped %d, before its predecessor's %d", mode, ev.Seq, ev.Text(), ev.At, last)
			}
			last = ev.At
		}
		if n := e.Interp.Dispatches(); watched && int64(len(seq)) != n {
			t.Errorf("%s: watched ring holds %d eval events of %d dispatches", mode, len(seq), n)
		}
		return seq
	}
	for _, watched := range []bool{false, true} {
		classic := strings.Join(evals("classic", watched), " ")
		if classic == "" {
			t.Fatal("classic run recorded no eval events")
		}
		if got := strings.Join(evals("vm", watched), " "); got != classic {
			t.Errorf("watched=%v: vm eval events diverge from classic:\n got: %s\nwant: %s", watched, got, classic)
		}
	}
}

// TestExpInternalRendersEveryLaterEval: exp_internal 2 mid-script makes
// the engine report every later dispatch, so the narration renders each
// one. mark reads the dispatch count from inside its own dispatch, the
// first one stamped after the flip.
func TestExpInternalRendersEveryLaterEval(t *testing.T) {
	e, _ := newTestEngine(t)
	var diag bytes.Buffer
	e.Interp.Stderr = &diag
	var marked int64
	e.Interp.Register("mark", func(i *tcl.Interp, _ []string) tcl.Result {
		marked = i.Dispatches()
		return tcl.Ok("")
	})
	if _, err := e.Run(observerProcs + dialogueSetup() + "dialogue; dialogue; exp_internal 2; mark; dialogue; dialogue"); err != nil {
		t.Fatal(err)
	}
	later := e.Interp.Dispatches() - marked + 1
	rendered := 0
	for _, line := range strings.Split(diag.String(), "\n") {
		if strings.HasPrefix(line, "tcl: dispatch ") && !strings.HasPrefix(line, "tcl: dispatch exp_internal ") {
			rendered++
		}
	}
	if later < 100 || int64(rendered) != later {
		t.Errorf("exp_internal 2 rendered %d eval dispatches, %d ran after it", rendered, later)
	}
}

// TestUnfilteredTapSeesEveryEval: a tap that admits every session is a
// consumer of eval events, so while it is subscribed the engine reports
// every dispatch; a tap filtered to one session is not, and after the
// unfiltered tap closes the ring is back to the seeded sample.
func TestUnfilteredTapSeesEveryEval(t *testing.T) {
	e, _ := newTestEngine(t)
	rec := e.Recorder()
	if _, err := e.Run(observerProcs + dialogueSetup()); err != nil {
		t.Fatal(err)
	}
	c := countHook(e)
	// run drives four dialogues and returns how many dispatches they made
	// and how many events the ring recorded; every one of those is an
	// eval, as the dialogue neither sends nor expects.
	run := func() (dispatches int64, events uint64) {
		d0, t0 := e.Interp.Dispatches(), rec.Total()
		if _, err := e.Run("dialogue; dialogue; dialogue; dialogue"); err != nil {
			t.Fatal(err)
		}
		return e.Interp.Dispatches() - d0, rec.Total() - t0
	}
	// sampleOnly requires the hook and the ring to see the sample only.
	sampleOnly := func(label string) {
		t.Helper()
		*c = hookCounts{}
		n, evs := run()
		if c.calls != c.sampled || uint64(c.sampled) != evs || c.sampled == 0 || c.sampled > n/32 {
			t.Errorf("%s: %d hook calls, %d sampled, %d ring events of %d dispatches", label, c.calls, c.sampled, evs, n)
		}
	}

	one := rec.Subscribe(3, 0)
	if rec.Watched() {
		t.Error("a tap on spawn_id 3 counts as watching eval events")
	}
	sampleOnly("with a sid tap")
	one.Close()

	all := rec.Subscribe(-1, 1<<14)
	if !rec.Watched() {
		t.Fatal("an unfiltered tap does not count as watching")
	}
	n, evs := run()
	lines := 0
	for len(all.Events()) > 0 {
		line := <-all.Events()
		if !bytes.Contains(line, []byte(`"kind":"eval"`)) {
			t.Fatalf("tap line %q is not an eval event", line)
		}
		lines++
	}
	if int64(lines) != n || uint64(n) != evs || all.Dropped() != 0 {
		t.Errorf("unfiltered tap saw %d eval events (%d dropped), ring %d, of %d dispatches", lines, all.Dropped(), evs, n)
	}
	all.Close()

	if rec.Watched() {
		t.Fatal("still watched after the tap closed")
	}
	sampleOnly("after Close")
}

// TestEngineDefaultsToVM pins the engine's evaluator: an empty or unknown
// EvalMode runs the bytecode vm.
func TestEngineDefaultsToVM(t *testing.T) {
	for _, mode := range []string{"", "turbo"} {
		e := NewEngine(EngineOptions{UserIn: strings.NewReader(""), UserOut: io.Discard, EvalMode: mode})
		if got := e.Interp.EvalMode(); got != tcl.EvalVM {
			t.Errorf("EvalMode %q: engine runs %s, want vm", mode, got)
		}
		e.Shutdown()
	}
}

// TestEvalEventStampIsDispatchEnd checks that the engine stamps each eval
// event with the clock reading that ended the dispatch, as DispatchEnd
// reports it to the hook, instead of reading the clock again: the ring's
// stamps and the hook's end readings are the same instants on one base.
// The run is watched (diagnostics level 2), so every dispatch reaches the
// hook and the ring, not just the seeded sample.
func TestEvalEventStampIsDispatchEnd(t *testing.T) {
	e, _ := newTestEngine(t)
	e.Recorder().SetDiag(2, io.Discard)
	own := e.Interp.DispatchHook
	var ends []int64
	e.Interp.DispatchHook = func(name string, depth int, d time.Duration) {
		own(name, depth, d)
		ends = append(ends, e.Interp.DispatchEnd())
	}
	if _, err := e.Run(`set a 1; incr a; if {$a > 1} { set b [expr {$a * 2}] }; foreach x {1 2} { set c $x }`); err != nil {
		t.Fatal(err)
	}
	var ats []int64
	for _, ev := range e.Recorder().Events() {
		if ev.Kind == trace.KindEval {
			ats = append(ats, ev.At)
		}
	}
	if len(ats) != len(ends) || len(ats) < 2 {
		t.Fatalf("%d eval events for %d dispatches", len(ats), len(ends))
	}
	for k := range ats {
		if got, want := ats[k]-ats[0], ends[k]-ends[0]; got != want {
			t.Errorf("eval event %d is %dns after the first, its dispatch ended %dns after", k, got, want)
		}
	}
}
