package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// lineServer builds a virtual program that greets, then answers each input
// line via respond. Returning ok=false exits the program.
func lineServer(greeting string, respond func(line string) (string, bool)) func(io.Reader, io.Writer) error {
	return func(stdin io.Reader, stdout io.Writer) error {
		if greeting != "" {
			fmt.Fprint(stdout, greeting)
		}
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			reply, ok := respond(strings.TrimRight(sc.Text(), "\r"))
			if reply != "" {
				fmt.Fprint(stdout, reply)
			}
			if !ok {
				return nil
			}
		}
		return nil
	}
}

func spawnEcho(t *testing.T, cfg *Config) *Session {
	t.Helper()
	s, err := SpawnProgram(cfg, "echo", lineServer("ready\n", func(line string) (string, bool) {
		if line == "quit" {
			return "bye\n", false
		}
		return "echo:" + line + "\n", true
	}))
	if err != nil {
		t.Fatalf("SpawnProgram: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestExpectSimpleDialogue(t *testing.T) {
	s := spawnEcho(t, nil)
	r, err := s.ExpectMatch("*ready*")
	if err != nil {
		t.Fatalf("expect ready: %v", err)
	}
	if !strings.Contains(r.Text, "ready") {
		t.Errorf("matched text %q missing greeting", r.Text)
	}
	if err := s.Send("hello\n"); err != nil {
		t.Fatalf("send: %v", err)
	}
	r, err = s.ExpectMatch("*echo:hello*")
	if err != nil {
		t.Fatalf("expect echo: %v", err)
	}
	if r.Index != 0 {
		t.Errorf("index = %d", r.Index)
	}
}

func TestExpectMultipleCases(t *testing.T) {
	s := spawnEcho(t, nil)
	s.ExpectMatch("*ready*")
	s.Send("banana\n")
	r, err := s.Expect(Glob("*apple*"), Glob("*banana*"), Glob("*cherry*"))
	if err != nil {
		t.Fatalf("expect: %v", err)
	}
	if r.Index != 1 {
		t.Errorf("matched case %d, want 1", r.Index)
	}
}

func TestExpectFirstCaseWins(t *testing.T) {
	s := spawnEcho(t, nil)
	s.ExpectMatch("*ready*")
	s.Send("both\n")
	// Both patterns match the same buffer; the earlier case must win.
	r, err := s.Expect(Glob("*both*"), Glob("*echo*"))
	if err != nil {
		t.Fatalf("expect: %v", err)
	}
	if r.Index != 0 {
		t.Errorf("matched case %d, want 0", r.Index)
	}
}

func TestExpectConsumesBuffer(t *testing.T) {
	s := spawnEcho(t, nil)
	s.ExpectMatch("*ready*")
	if buf := s.Buffer(); buf != "" {
		t.Errorf("buffer after match = %q, want empty", buf)
	}
	s.Send("one\n")
	s.ExpectMatch("*one*")
	s.Send("two\n")
	r, err := s.ExpectMatch("*two*")
	if err != nil {
		t.Fatalf("expect two: %v", err)
	}
	if strings.Contains(r.Text, "one") {
		t.Errorf("second match %q saw first response — buffer not consumed", r.Text)
	}
}

func TestExpectTimeoutError(t *testing.T) {
	s := spawnEcho(t, nil)
	s.ExpectMatch("*ready*")
	start := time.Now()
	_, err := s.ExpectTimeout(50*time.Millisecond, Glob("*never-appears*"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if e := time.Since(start); e < 40*time.Millisecond || e > 2*time.Second {
		t.Errorf("timeout fired after %v", e)
	}
}

// waitFor polls cond until it holds or the deadline passes — tests
// synchronize on observable session state instead of sleeping blind.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestExpectTimeoutCase(t *testing.T) {
	s := spawnEcho(t, nil)
	s.ExpectMatch("*ready*")
	s.Send("abc\n")
	// The echo must already sit unmatched in the buffer when the timeout
	// fires, so sync on it arriving rather than hoping 10ms suffices.
	waitFor(t, "echo of abc", func() bool { return strings.Contains(s.Buffer(), "echo:abc") })
	r, err := s.ExpectTimeout(50*time.Millisecond, Glob("*never*"), TimeoutCase())
	if err != nil {
		t.Fatalf("expect with timeout case: %v", err)
	}
	if !r.TimedOut || r.Index != 1 {
		t.Errorf("result = %+v, want timeout case 1", r)
	}
	// "read but unmatched" text lands in Text.
	if !strings.Contains(r.Text, "echo:abc") {
		t.Errorf("timeout Text = %q, want the unmatched data", r.Text)
	}
}

func TestExpectEOF(t *testing.T) {
	s := spawnEcho(t, nil)
	s.ExpectMatch("*ready*")
	s.Send("quit\n")
	r, err := s.Expect(Glob("*bye*"))
	if err != nil {
		t.Fatalf("expect bye: %v", err)
	}
	_ = r
	// Program has exited; next expect must see EOF.
	_, err = s.ExpectTimeout(time.Second, Glob("*more*"))
	if !errors.Is(err, ErrEOF) {
		t.Fatalf("err = %v, want ErrEOF", err)
	}
	// With an explicit eof case it completes normally.
	r, err = s.ExpectTimeout(time.Second, Glob("*more*"), EOFCase())
	if err != nil {
		t.Fatalf("expect with eof case: %v", err)
	}
	if !r.Eof || r.Index != 1 {
		t.Errorf("result = %+v, want eof case 1", r)
	}
}

func TestExpectExactAndRegexp(t *testing.T) {
	s := spawnEcho(t, nil)
	s.ExpectMatch("*ready*")
	s.Send("target123\n")
	r, err := s.Expect(Exact("echo:target"))
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	if !strings.HasSuffix(r.Text, "echo:target") {
		t.Errorf("exact Text = %q", r.Text)
	}
	// The rest ("123\n") stays buffered.
	r, err = s.Expect(Regexp(`\d+`))
	if err != nil {
		t.Fatalf("regexp: %v", err)
	}
	if !strings.HasSuffix(r.Text, "123") {
		t.Errorf("regexp Text = %q", r.Text)
	}
}

func TestExpectNegativeTimeoutWaitsForever(t *testing.T) {
	s, err := SpawnProgram(nil, "slow", func(stdin io.Reader, stdout io.Writer) error {
		time.Sleep(80 * time.Millisecond)
		fmt.Fprint(stdout, "late\n")
		io.Copy(io.Discard, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := s.ExpectTimeout(-1, Glob("*late*"))
	if err != nil {
		t.Fatalf("expect: %v", err)
	}
	if !strings.Contains(r.Text, "late") {
		t.Errorf("Text = %q", r.Text)
	}
}

func TestMatchMaxForgetting(t *testing.T) {
	cfg := &Config{MatchMax: 100}
	s, err := SpawnProgram(cfg, "chatty", func(stdin io.Reader, stdout io.Writer) error {
		for i := 0; i < 50; i++ {
			fmt.Fprintf(stdout, "line %04d aaaaaaaaaaaaaaaaaaaa\n", i)
		}
		fmt.Fprint(stdout, "DONE\n")
		io.Copy(io.Discard, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := s.ExpectTimeout(2*time.Second, Glob("*DONE*"))
	if err != nil {
		t.Fatalf("expect DONE: %v", err)
	}
	if len(r.Text) > 100 {
		t.Errorf("matched text %d bytes exceeds match_max 100", len(r.Text))
	}
	if s.Forgotten() == 0 {
		t.Error("no bytes forgotten despite output far exceeding match_max")
	}
	if s.TotalSeen() < 1000 {
		t.Errorf("TotalSeen = %d, expected the full stream", s.TotalSeen())
	}
}

func TestSetMatchMaxTrimsExisting(t *testing.T) {
	s, err := SpawnProgram(nil, "burst", func(stdin io.Reader, stdout io.Writer) error {
		fmt.Fprint(stdout, strings.Repeat("x", 500))
		io.Copy(io.Discard, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Wait for the data to arrive.
	deadline := time.Now().Add(2 * time.Second)
	for s.TotalSeen() < 500 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s.SetMatchMax(50)
	if got := len(s.Buffer()); got > 50 {
		t.Errorf("buffer after SetMatchMax(50) = %d bytes", got)
	}
	if s.Forgotten() < 450 {
		t.Errorf("Forgotten = %d, want >= 450", s.Forgotten())
	}
}

func TestIncrementalMatcherMode(t *testing.T) {
	cfg := &Config{Matcher: MatcherIncremental}
	s, err := SpawnProgram(cfg, "dribble", func(stdin io.Reader, stdout io.Writer) error {
		for _, c := range "one two MAGIC three" {
			fmt.Fprint(stdout, string(c))
			time.Sleep(time.Millisecond)
		}
		io.Copy(io.Discard, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := s.ExpectTimeout(5*time.Second, Glob("*MAGIC*"))
	if err != nil {
		t.Fatalf("incremental expect: %v", err)
	}
	if !strings.Contains(r.Text, "MAGIC") {
		t.Errorf("Text = %q", r.Text)
	}
}

func TestSendToClosedSession(t *testing.T) {
	s := spawnEcho(t, nil)
	s.ExpectMatch("*ready*")
	s.Close()
	if err := s.Send("hello\n"); err != ErrClosed {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
}

func TestCloseDeliversEOFToProgram(t *testing.T) {
	sawEOF := make(chan struct{})
	s, err := SpawnProgram(nil, "watcher", func(stdin io.Reader, stdout io.Writer) error {
		fmt.Fprint(stdout, "up\n")
		io.Copy(io.Discard, stdin) // returns on EOF
		close(sawEOF)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ExpectMatch("*up*")
	s.Close()
	select {
	case <-sawEOF:
	case <-time.After(2 * time.Second):
		t.Fatal("program never saw EOF after Close — close should kill it (§3.2)")
	}
	if code, err := s.Wait(); err != nil || code != 0 {
		t.Errorf("Wait = %d, %v", code, err)
	}
}

func TestWaitExitStatus(t *testing.T) {
	s, err := SpawnProgram(nil, "failer", func(stdin io.Reader, stdout io.Writer) error {
		return fmt.Errorf("deliberate failure")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, err := s.Wait()
	if err != nil {
		t.Fatalf("Wait err: %v", err)
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
}

func TestSelectTwoSessions(t *testing.T) {
	fast, err := SpawnProgram(nil, "fast", func(stdin io.Reader, stdout io.Writer) error {
		fmt.Fprint(stdout, "fast-data\n")
		io.Copy(io.Discard, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	// Gated rather than sleep-delayed: "slow" must be provably silent for
	// the first Select whatever the scheduler does; we release it after.
	gate := make(chan struct{})
	slow, err := SpawnProgram(nil, "slow", func(stdin io.Reader, stdout io.Writer) error {
		<-gate
		fmt.Fprint(stdout, "slow-data\n")
		io.Copy(io.Discard, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()

	ready := Select(2*time.Second, fast, slow)
	if len(ready) != 1 || ready[0] != fast {
		names := make([]string, len(ready))
		for i, s := range ready {
			names[i] = s.Name()
		}
		t.Fatalf("Select ready = %v, want [fast]", names)
	}
	close(gate)
	// Eventually both are readable.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(Select(100*time.Millisecond, fast, slow)) == 2 {
			return
		}
	}
	t.Error("both sessions never became readable")
}

func TestSelectTimeout(t *testing.T) {
	quiet, err := SpawnProgram(nil, "quiet", func(stdin io.Reader, stdout io.Writer) error {
		io.Copy(io.Discard, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	start := time.Now()
	if got := Select(60*time.Millisecond, quiet); got != nil {
		t.Fatalf("Select = %v, want nil on timeout", got)
	}
	if e := time.Since(start); e < 50*time.Millisecond {
		t.Errorf("Select returned after %v, too early", e)
	}
}

// rwPair adapts separate reader/writer into an io.ReadWriteCloser for
// user-as-session tests.
type rwPair struct {
	io.Reader
	io.Writer
}

func (rwPair) Close() error { return nil }

func TestInteractPassThrough(t *testing.T) {
	s := spawnEcho(t, nil)
	s.ExpectMatch("*ready*")

	userIn := newScriptedReader("hello\n", "quit\n")
	var userOut lockedBuffer
	outcome, err := s.Interact(InteractOptions{UserIn: userIn, UserOut: &userOut})
	if err != nil {
		t.Fatalf("interact: %v", err)
	}
	if outcome.Reason != InteractEOF {
		t.Errorf("reason = %v, want process-eof", outcome.Reason)
	}
	got := userOut.String()
	if !strings.Contains(got, "echo:hello") || !strings.Contains(got, "bye") {
		t.Errorf("user saw %q", got)
	}
}

func TestInteractEscape(t *testing.T) {
	s := spawnEcho(t, nil)
	s.ExpectMatch("*ready*")

	userIn := newScriptedReader("abc\n", "\x1d") // ^] escape
	var userOut lockedBuffer
	outcome, err := s.Interact(InteractOptions{
		UserIn:  userIn,
		UserOut: &userOut,
		Escape:  0x1d,
		OnEscape: func(io.Reader) (bool, string) {
			return false, "escaped-result"
		},
	})
	if err != nil {
		t.Fatalf("interact: %v", err)
	}
	if outcome.Reason != InteractReturn || outcome.Result != "escaped-result" {
		t.Errorf("outcome = %+v", outcome)
	}
	// The session must still be alive after escaping out.
	s.Send("more\n")
	if _, err := s.ExpectTimeout(2*time.Second, Glob("*echo:more*")); err != nil {
		t.Errorf("session dead after interact escape: %v", err)
	}
}

func TestInteractEscapeResume(t *testing.T) {
	s := spawnEcho(t, nil)
	s.ExpectMatch("*ready*")
	calls := 0
	userIn := newScriptedReader("\x1d", "after\n", "quit\n")
	var userOut lockedBuffer
	outcome, err := s.Interact(InteractOptions{
		UserIn:  userIn,
		UserOut: &userOut,
		Escape:  0x1d,
		OnEscape: func(io.Reader) (bool, string) {
			calls++
			return true, "" // continue interacting
		},
	})
	if err != nil {
		t.Fatalf("interact: %v", err)
	}
	if calls != 1 {
		t.Errorf("escape handler calls = %d", calls)
	}
	if outcome.Reason != InteractEOF {
		t.Errorf("reason = %v", outcome.Reason)
	}
	if !strings.Contains(userOut.String(), "echo:after") {
		t.Errorf("post-resume output missing: %q", userOut.String())
	}
}

func TestUserAsSession(t *testing.T) {
	// §2.2: "The user can also be manipulated as if they were a process."
	in := newScriptedReader("typed-by-user\n")
	var out lockedBuffer
	user := NewSession(nil, "user", rwPair{in, &out})
	defer user.Close()
	if err := user.Send("prompt: "); err != nil {
		t.Fatalf("send_user: %v", err)
	}
	r, err := user.ExpectTimeout(2*time.Second, Glob("*typed-by-user*"))
	if err != nil {
		t.Fatalf("expect_user: %v", err)
	}
	if !strings.Contains(r.Text, "typed-by-user") {
		t.Errorf("Text = %q", r.Text)
	}
	if out.String() != "prompt: " {
		t.Errorf("user terminal got %q", out.String())
	}
}

func TestLoggerTap(t *testing.T) {
	var mu sync.Mutex
	var logged bytes.Buffer
	cfg := &Config{Logger: func(b []byte) {
		mu.Lock()
		logged.Write(b)
		mu.Unlock()
	}}
	s := spawnEcho(t, cfg)
	s.ExpectMatch("*ready*")
	s.Send("tapme\n")
	s.ExpectMatch("*echo:tapme*")
	mu.Lock()
	got := logged.String()
	mu.Unlock()
	if !strings.Contains(got, "ready") || !strings.Contains(got, "echo:tapme") {
		t.Errorf("logger saw %q", got)
	}
}

// scriptedReader delivers each scripted string as a separate Read, with a
// tiny pause between them. Once exhausted it behaves like a user who has
// stopped typing: the Read blocks (for a long while) before reporting EOF,
// so process-side events decide how an interaction ends.
type scriptedReader struct {
	mu     sync.Mutex
	chunks []string
}

func newScriptedReader(chunks ...string) *scriptedReader {
	return &scriptedReader{chunks: chunks}
}

func (r *scriptedReader) Read(b []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.chunks) == 0 {
		time.Sleep(30 * time.Second)
		return 0, io.EOF
	}
	time.Sleep(2 * time.Millisecond)
	n := copy(b, r.chunks[0])
	if n == len(r.chunks[0]) {
		r.chunks = r.chunks[1:]
	} else {
		r.chunks[0] = r.chunks[0][n:]
	}
	return n, nil
}

// lockedBuffer is a goroutine-safe bytes.Buffer.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestParkedExpectsResolveFIFO: concurrent Expects on one session resolve
// in the order they parked, so the first one parked gets the first match
// in a chunk that satisfies both.
func TestParkedExpectsResolveFIFO(t *testing.T) {
	s := NewManualSession(nil, "fifo")
	got := make([]chan string, 2)
	for i := range got {
		got[i] = make(chan string, 1)
		go func() {
			m, err := s.ExpectTimeout(5*time.Second, Exact(";"))
			if err != nil {
				got[i] <- err.Error()
				return
			}
			got[i] <- m.Text
		}()
		deadline := time.Now().Add(5 * time.Second)
		for s.Info().ParkedOps != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("expect %d never parked", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	s.Feed([]byte("a;b;"))
	for i, want := range []string{"a;", "b;"} {
		if text := <-got[i]; text != want {
			t.Errorf("expect %d matched %q, want %q", i, text, want)
		}
	}
}

// TestDeadlineRacingIngestResolvesOnce: an op whose deadline passes just
// as its input lands resolves once, either way: the ingest step matches
// it, or its timer unparks it and the caller's deadline step resolves it
// (a match, if the input beat that step, or the timeout). Nothing stays
// parked, and no input is lost to the race.
func TestDeadlineRacingIngestResolvesOnce(t *testing.T) {
	s := NewManualSession(nil, "race")
	const rounds = 300
	matched := 0
	for i := 0; i < rounds; i++ {
		fed := make(chan struct{})
		go func() {
			defer close(fed)
			time.Sleep(time.Duration(i%7) * 20 * time.Microsecond)
			s.Feed([]byte("x;"))
		}()
		m, err := s.ExpectTimeout(60*time.Microsecond, Exact(";"), TimeoutCase())
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		<-fed
		if m.TimedOut {
			// The input arrived after the verdict; it is still buffered.
			if m, err = s.ExpectTimeout(0, Exact(";")); err != nil {
				t.Fatalf("round %d: buffered input lost: %v", i, err)
			}
		}
		if m.Text != "x;" {
			t.Fatalf("round %d matched %q, want %q", i, m.Text, "x;")
		}
		matched++
		if n := s.Info().ParkedOps; n != 0 {
			t.Fatalf("round %d left %d ops parked", i, n)
		}
	}
	if matched != rounds {
		t.Errorf("matched %d of %d inputs", matched, rounds)
	}
}
