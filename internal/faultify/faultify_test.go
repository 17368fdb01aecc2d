package faultify

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/proc"
)

// loopback is a ReadWriteCloser over fixed child output, recording what
// the engine wrote.
type loopback struct {
	out  *bytes.Reader // child output stream
	in   bytes.Buffer  // engine -> child bytes
	wmax int           // optional cap on per-call write size accepted
}

func newLoopback(childOutput string) *loopback {
	return &loopback{out: bytes.NewReader([]byte(childOutput))}
}

func (l *loopback) Read(b []byte) (int, error) { return l.out.Read(b) }
func (l *loopback) Write(b []byte) (int, error) {
	if l.wmax > 0 && len(b) > l.wmax {
		b = b[:l.wmax]
	}
	return l.in.Write(b)
}
func (l *loopback) Close() error { return nil }

// drain reads t to EOF, retrying transient errors, and returns the data
// plus the observed chunk sizes.
func drain(t *Transport) (string, []int, error) {
	var data bytes.Buffer
	var sizes []int
	buf := make([]byte, 4096)
	for {
		n, err := t.Read(buf)
		if n > 0 {
			sizes = append(sizes, n)
			data.Write(buf[:n])
		}
		if err != nil {
			if errors.Is(err, ErrTransient) {
				continue
			}
			if err == io.EOF {
				return data.String(), sizes, nil
			}
			return data.String(), sizes, err
		}
	}
}

const payload = "Welcome to the machine.\nlogin: guest\nPassword:\n"

func TestCleanScheduleIsPassThrough(t *testing.T) {
	tr := Wrap(newLoopback(payload), Schedule{Seed: 1}, nil)
	got, _, err := drain(tr)
	if err != nil || got != payload {
		t.Fatalf("got %q err %v", got, err)
	}
	if !tr.Schedule().Clean() {
		t.Error("schedule with only a seed should be Clean")
	}
	if n := tr.Stats()[CounterReadsSplit]; n != 0 {
		t.Errorf("clean schedule split reads: %d", n)
	}
}

func TestResegmentationOneByte(t *testing.T) {
	tr := Wrap(newLoopback(payload), Schedule{Seed: 7, MaxReadChunk: 1}, nil)
	got, sizes, err := drain(tr)
	if err != nil || got != payload {
		t.Fatalf("got %q err %v", got, err)
	}
	for _, s := range sizes {
		if s != 1 {
			t.Fatalf("1-byte schedule delivered a %d-byte chunk", s)
		}
	}
	if len(sizes) != len(payload) {
		t.Errorf("chunks = %d, want %d", len(sizes), len(payload))
	}
}

func TestResegmentationBounded(t *testing.T) {
	tr := Wrap(newLoopback(payload), Schedule{Seed: 3, MaxReadChunk: 5}, nil)
	got, sizes, err := drain(tr)
	if err != nil || got != payload {
		t.Fatalf("got %q err %v", got, err)
	}
	for _, s := range sizes {
		if s > 5 {
			t.Fatalf("chunk %d exceeds MaxReadChunk 5", s)
		}
	}
}

// Determinism: identical seed and schedule over identical traffic must
// reproduce the exact chunk sequence; a different seed should not.
func TestSeedDeterminism(t *testing.T) {
	run := func(seed uint64) []int {
		tr := Wrap(newLoopback(payload), Schedule{Seed: seed, MaxReadChunk: 6, TransientEveryN: 4}, nil)
		_, sizes, err := drain(tr)
		if err != nil {
			t.Fatal(err)
		}
		return sizes
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("same seed, different chunk counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at chunk %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules (PRNG not wired)")
	}
}

func TestTransientReadErrors(t *testing.T) {
	sink := metrics.NewCounters()
	tr := Wrap(newLoopback(payload), Schedule{Seed: 5, TransientEveryN: 2}, sink)
	got, _, err := drain(tr)
	if err != nil || got != payload {
		t.Fatalf("got %q err %v", got, err)
	}
	if n := tr.Stats()[CounterReadTransients]; n == 0 {
		t.Error("no transient errors injected at 1-in-2")
	}
	if sink.Get(CounterReadTransients) != tr.Stats()[CounterReadTransients] {
		t.Error("sink and internal stats disagree")
	}
	var temp interface{ Temporary() bool }
	if !errors.As(ErrTransient, &temp) || !temp.Temporary() {
		t.Error("ErrTransient must report Temporary() == true")
	}
}

func TestShortWritesPreserveByteSequence(t *testing.T) {
	lb := newLoopback("")
	tr := Wrap(lb, Schedule{Seed: 9, MaxWriteChunk: 2, WriteTransientEveryN: 3}, nil)
	msg := []byte("set passwd hunter2\r")
	// Caller-side retry loop, as the engine's SendBytes does.
	sent := 0
	for sent < len(msg) {
		n, err := tr.Write(msg[sent:])
		sent += n
		if err != nil && !errors.Is(err, ErrTransient) {
			t.Fatal(err)
		}
	}
	if lb.in.String() != string(msg) {
		t.Fatalf("child saw %q, want %q", lb.in.String(), msg)
	}
	if tr.Stats()[CounterWritesSplit] == 0 {
		t.Error("no writes split at MaxWriteChunk=2")
	}
	if tr.Stats()[CounterWriteTransient] == 0 {
		t.Error("no transient write errors at 1-in-3")
	}
}

func TestCutAfterBytesForcesEOF(t *testing.T) {
	tr := Wrap(newLoopback(payload), Schedule{Seed: 1, CutAfterBytes: 10}, nil)
	got, _, err := drain(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got != payload[:10] {
		t.Fatalf("got %q, want first 10 bytes %q", got, payload[:10])
	}
	// EOF must be sticky.
	if n, err := tr.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Errorf("post-cut read = (%d, %v), want (0, EOF)", n, err)
	}
	if tr.Stats()[CounterEOFCuts] == 0 {
		t.Error("cut not counted")
	}
}

func TestReadDelayInjected(t *testing.T) {
	tr := Wrap(newLoopback(payload), Schedule{
		Seed: 11, DelayEveryN: 1, ReadDelay: time.Millisecond, MaxReadChunk: 4,
	}, nil)
	start := time.Now()
	got, _, err := drain(tr)
	if err != nil || got != payload {
		t.Fatalf("got %q err %v", got, err)
	}
	if tr.Stats()[CounterReadDelays] == 0 {
		t.Error("no delays injected with DelayEveryN=1")
	}
	if time.Since(start) == 0 {
		t.Error("suspiciously instant")
	}
}

func TestScheduleString(t *testing.T) {
	s := Schedule{Seed: 77, MaxReadChunk: 1, TransientEveryN: 8, CutAfterBytes: 5}
	str := s.String()
	for _, want := range []string{"seed=77", "readchunk<=1", "readerr=1in8", "cutafter=5B"} {
		if !bytes.Contains([]byte(str), []byte(want)) {
			t.Errorf("schedule string %q missing %q", str, want)
		}
	}
	if clean := (Schedule{Seed: 3}).String(); !bytes.Contains([]byte(clean), []byte("clean")) {
		t.Errorf("clean schedule renders as %q", clean)
	}
}

// End-to-end through the proc layer: a virtual program behind a faultified
// transport still delivers its whole stream, and the wrapper forwards
// half-close so the child sees EOF.
func TestWrapperOnVirtualTransport(t *testing.T) {
	sink := metrics.NewCounters()
	p, err := proc.SpawnVirtual("greeter", func(stdin io.Reader, stdout io.Writer) error {
		stdout.Write([]byte("hello engine\n"))
		io.ReadAll(stdin)
		stdout.Write([]byte("goodbye\n"))
		return nil
	}, proc.Options{WrapTransport: Wrapper(Schedule{Seed: 2, MaxReadChunk: 1, TransientEveryN: 3}, sink)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var data bytes.Buffer
	buf := make([]byte, 64)
	for !bytes.Contains(data.Bytes(), []byte("hello engine\n")) {
		n, rerr := p.Read(buf)
		data.Write(buf[:n])
		if rerr != nil && !errors.Is(rerr, ErrTransient) {
			t.Fatalf("read: %v (got %q)", rerr, data.String())
		}
	}
	if err := p.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	for {
		n, rerr := p.Read(buf)
		data.Write(buf[:n])
		if rerr != nil {
			if errors.Is(rerr, ErrTransient) {
				continue
			}
			break
		}
	}
	if got := data.String(); got != "hello engine\ngoodbye\n" {
		t.Fatalf("stream %q", got)
	}
	if sink.Get(CounterReads) == 0 {
		t.Error("sink saw no reads")
	}
}

// eventStream is what a shard needs of a transport.
type eventStream interface {
	TryRead(b []byte) (int, bool, error)
	SetReadNotify(fn func())
}

// The hooks keep a stream's event capability exactly when it has one: a
// wrapped duplex can still be drained by a shard, and a wrapped stream
// without TryRead does not claim one.
func TestWrapperKeepsEventCapability(t *testing.T) {
	engine, _ := proc.NewDuplexPair(64)
	for _, wrap := range []func(io.ReadWriteCloser) io.ReadWriteCloser{
		Wrapper(Schedule{Seed: 1, MaxReadChunk: 1}, nil),
		TracedWrapper(Schedule{Seed: 1, MaxReadChunk: 1}, nil, nil),
	} {
		if _, ok := wrap(engine).(eventStream); !ok {
			t.Error("wrapping a duplex hid TryRead or SetReadNotify")
		}
		if _, ok := wrap(newLoopback(payload)).(eventStream); ok {
			t.Error("wrapping a stream without TryRead produced one with it")
		}
	}
	p, err := proc.SpawnVirtual("quiet", func(stdin io.Reader, stdout io.Writer) error {
		io.Copy(io.Discard, stdin)
		return nil
	}, proc.Options{WrapTransport: Wrapper(Schedule{Seed: 2, MaxReadChunk: 1}, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.EventCapable() {
		t.Error("a wrapped virtual transport is not event-capable")
	}
}

// tryDrain reads sched's transport over a fully buffered stream to EOF
// through TryRead, waiting on the doorbell whenever it reads as not
// ready, and returns the data, the chunk sizes and the fault counters.
func tryDrain(t *testing.T, sched Schedule, output string) (string, []int, map[string]int64) {
	t.Helper()
	engine, child := proc.NewDuplexPair(1 << 16)
	tr, ok := Wrapper(sched, nil)(engine).(eventTransport)
	if !ok {
		t.Fatal("wrapped duplex is not an eventTransport")
	}
	bell := make(chan struct{}, 1)
	tr.SetReadNotify(func() {
		select {
		case bell <- struct{}{}:
		default:
		}
	})
	child.Write([]byte(output))
	child.CloseWrite()
	var data bytes.Buffer
	var sizes []int
	buf := make([]byte, 4096)
	for {
		n, ok, err := tr.TryRead(buf)
		if !ok {
			select {
			case <-bell:
			case <-time.After(5 * time.Second):
				t.Fatal("a delayed TryRead never rang the doorbell")
			}
			continue
		}
		if n > 0 {
			sizes = append(sizes, n)
			data.Write(buf[:n])
		}
		if err == io.EOF {
			return data.String(), sizes, tr.Stats()
		}
		if err != nil && !errors.Is(err, ErrTransient) {
			t.Fatal(err)
		}
	}
}

// TryRead applies the schedule Read does, and polling does not move it:
// one stream driven twice through TryRead, with polls that find nothing
// between deliveries, chunks identically and counts identical faults,
// and chunks as Read does.
func TestTryReadScheduleIsDeterministic(t *testing.T) {
	output := strings.Repeat(payload, 4)
	for _, tc := range []struct {
		name  string
		sched Schedule
	}{
		{"reseg1", Schedule{Seed: 11, MaxReadChunk: 1}},
		{"mixed", Schedule{Seed: 12, MaxReadChunk: 3, MaxWriteChunk: 2, TransientEveryN: 5,
			WriteTransientEveryN: 7, DelayEveryN: 9, ReadDelay: time.Millisecond}},
		{"cut", Schedule{Seed: 13, MaxReadChunk: 5, TransientEveryN: 4, CutAfterBytes: 30}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, sizes, stats := tryDrain(t, tc.sched, output)
			data2, sizes2, stats2 := tryDrain(t, tc.sched, output)
			want := output
			if c := tc.sched.CutAfterBytes; c > 0 {
				want = output[:c]
			}
			if data != want || data2 != want {
				t.Fatalf("TryRead delivered %q and %q, want %q", data, data2, want)
			}
			if fmt.Sprint(sizes) != fmt.Sprint(sizes2) {
				t.Fatalf("same schedule chunked differently:\n%v\n%v", sizes, sizes2)
			}
			if fmt.Sprint(stats) != fmt.Sprint(stats2) {
				t.Fatalf("same schedule counted different faults:\n%v\n%v", stats, stats2)
			}
			_, readSizes, err := drain(Wrap(newLoopback(output), tc.sched, nil))
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(sizes) != fmt.Sprint(readSizes) {
				t.Fatalf("TryRead and Read chunked differently:\n%v\n%v", sizes, readSizes)
			}
			switch tc.name {
			case "reseg1":
				if len(sizes) != len(output) {
					t.Errorf("%d chunks, want one per byte (%d)", len(sizes), len(output))
				}
			case "mixed":
				if stats[CounterReadDelays] == 0 || stats[CounterReadTransients] == 0 {
					t.Errorf("mixed schedule injected no delay or no transient: %v", stats)
				}
			case "cut":
				if stats[CounterEOFCuts] != 1 {
					t.Errorf("cut counted %d times, want 1: %v", stats[CounterEOFCuts], stats)
				}
			}
		})
	}
}
