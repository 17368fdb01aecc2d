package netx

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netx/mux"
	"repro/internal/proc"
	"repro/internal/testutil"
)

// countingConn counts Write calls — one per write(2) on a real socket —
// and holds the first one until gate closes, which models a socket still
// busy with the batch before.
type countingConn struct {
	net.Conn
	writes atomic.Int32
	gate   chan struct{}
}

func (c *countingConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) == 1 {
		<-c.gate
	}
	return c.Conn.Write(b)
}

// readFrames decodes r until EOF or error, copying each payload.
func readFrames(r io.Reader) <-chan []mux.Frame {
	out := make(chan []mux.Frame, 1)
	go func() {
		var frames []mux.Frame
		dec := mux.NewDecoder(r)
		for {
			f, err := dec.Next()
			if err != nil {
				out <- frames
				return
			}
			f.Payload = append([]byte(nil), f.Payload...)
			frames = append(frames, f)
		}
	}()
	return out
}

// TestFrameWriterCoalescesBurst: a program's burst of small writes queues
// behind the batch in the kernel and leaves as a handful of write calls
// carrying merged DATA frames, byte-identical to what was written.
func TestFrameWriterCoalescesBurst(t *testing.T) {
	a, b := net.Pipe()
	cc := &countingConn{Conn: a, gate: make(chan struct{})}
	w := newFrameWriter(cc)
	got := readFrames(b)

	var want []byte
	chunk := make([]byte, 512)
	for i := 0; i < 96; i++ {
		for j := range chunk {
			chunk[j] = byte(i*7 + j)
		}
		want = append(want, chunk...)
		if err := w.write(mux.Frame{Type: mux.TypeData, Stream: 1, Payload: chunk}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.write(mux.Frame{Type: mux.TypeClose, Stream: 1}); err != nil {
		t.Fatal(err)
	}
	close(cc.gate)
	w.drain(time.Now().Add(5 * time.Second))
	a.Close()
	frames := <-got
	if len(frames) == 0 {
		t.Fatal("no frames reached the peer")
	}

	var data []byte
	ndata := 0
	for _, f := range frames[:len(frames)-1] {
		if f.Type != mux.TypeData || f.Stream != 1 || f.Flags != 0 {
			t.Fatalf("unexpected frame %s flags %#x on stream %d", f.Type, f.Flags, f.Stream)
		}
		data = append(data, f.Payload...)
		ndata++
	}
	if last := frames[len(frames)-1]; last.Type != mux.TypeClose || last.Stream != 1 {
		t.Fatalf("last frame %s on stream %d, want CLOSE on 1", last.Type, last.Stream)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("decoded %d bytes differ from the %d written", len(data), len(want))
	}
	// At most the frame the flusher took before the burst, then the rest
	// merged into one.
	if ndata > 2 {
		t.Errorf("96 writes reached the peer as %d DATA frames, want at most 2", ndata)
	}
	if n := cc.writes.Load(); n > 4 {
		t.Errorf("96 writes cost %d write calls, want a handful", n)
	}
}

// TestFrameWriterMergeBoundaries: eight concurrent writers each drive one
// stream (OPEN, DATA of varying sizes, some DATA carrying a flag bit,
// CLOSE) while PINGs interleave. Every merge stays within one stream's
// consecutive flag-less DATA writes, flagged frames arrive exactly as
// written, and each stream keeps OPEN < DATA < CLOSE.
func TestFrameWriterMergeBoundaries(t *testing.T) {
	const (
		writers = 8
		perW    = 150
		flagBit = 0x80 // an unassigned DATA flag: round-trips verbatim
	)
	type piece struct {
		flags   uint8
		payload []byte
	}
	a, b := net.Pipe()
	w := newFrameWriter(a)
	got := readFrames(b)

	sent := make([][]piece, writers+1)
	var wg sync.WaitGroup
	for g := 1; g <= writers; g++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			put := func(f mux.Frame) {
				if err := w.write(f); err != nil {
					t.Error(err)
				}
			}
			put(mux.Frame{Type: mux.TypeOpen, Stream: id, Payload: mux.AppendOpen(nil, "echo", "")})
			for i := 0; i < perW; i++ {
				p := bytes.Repeat([]byte(fmt.Sprintf("[%d.%d]", id, i)), 1+(i*37)%400)
				var flags uint8
				if i%17 == 5 {
					flags = flagBit
				}
				sent[id] = append(sent[id], piece{flags, p})
				put(mux.Frame{Type: mux.TypeData, Flags: flags, Stream: id, Payload: p})
				if i%41 == 0 {
					put(mux.Frame{Type: mux.TypePing, Payload: []byte("hb")})
				}
			}
			put(mux.Frame{Type: mux.TypeClose, Stream: id})
		}(uint32(g))
	}
	wg.Wait()
	w.drain(time.Now().Add(10 * time.Second))
	a.Close()

	perStream := make([][]mux.Frame, writers+1)
	for _, f := range <-got {
		switch {
		case f.Type == mux.TypePing:
			if string(f.Payload) != "hb" {
				t.Fatalf("PING payload %q", f.Payload)
			}
		case f.Stream >= 1 && f.Stream <= writers:
			perStream[f.Stream] = append(perStream[f.Stream], f)
		default:
			t.Fatalf("stray frame %s on stream %d", f.Type, f.Stream)
		}
	}
	for id := 1; id <= writers; id++ {
		frames := perStream[id]
		if len(frames) < 2 || frames[0].Type != mux.TypeOpen || frames[len(frames)-1].Type != mux.TypeClose {
			t.Fatalf("stream %d does not run OPEN ... CLOSE (%d frames)", id, len(frames))
		}
		todo := sent[id]
		for _, f := range frames[1 : len(frames)-1] {
			if f.Type != mux.TypeData {
				t.Fatalf("stream %d: %s between OPEN and CLOSE", id, f.Type)
			}
			if f.Flags != 0 {
				if len(todo) == 0 || todo[0].flags != f.Flags || !bytes.Equal(todo[0].payload, f.Payload) {
					t.Fatalf("stream %d: flagged frame %q is not the next flagged write", id, f.Payload)
				}
				todo = todo[1:]
				continue
			}
			// A flag-less frame is a run of consecutive flag-less writes.
			rest := f.Payload
			for len(rest) > 0 {
				if len(todo) == 0 || todo[0].flags != 0 || !bytes.HasPrefix(rest, todo[0].payload) {
					t.Fatalf("stream %d: merged frame crosses a write, flag or stream boundary", id)
				}
				rest = rest[len(todo[0].payload):]
				todo = todo[1:]
			}
		}
		if len(todo) != 0 {
			t.Fatalf("stream %d: %d writes never arrived", id, len(todo))
		}
	}
}

// TestFrameWriterDrainDeliversQueued: frames queued behind a peer that
// has not read yet are all delivered by drain, after which writes fail.
func TestFrameWriterDrainDeliversQueued(t *testing.T) {
	a, b := net.Pipe()
	w := newFrameWriter(a)
	w.write(mux.Frame{Type: mux.TypeData, Stream: 3, Payload: []byte("trailing output")})
	w.write(mux.Frame{Type: mux.TypeClose, Stream: 3})

	drained := make(chan struct{})
	go func() {
		w.drain(time.Now().Add(5 * time.Second))
		a.Close()
		close(drained)
	}()
	frames := <-readFrames(b)
	<-drained
	if len(frames) != 2 || string(frames[0].Payload) != "trailing output" || frames[1].Type != mux.TypeClose {
		t.Fatalf("drain delivered %v, want the queued DATA then CLOSE", frames)
	}
	if err := w.write(mux.Frame{Type: mux.TypeData, Stream: 3, Payload: []byte("late")}); err == nil {
		t.Fatal("write after drain was accepted")
	}
}

// TestFrameWriterFailNoLeak: fail stops every flusher — idle, blocked in
// a write to a peer that never reads, or with writers parked at the high
// water mark — and wakes the parked writers with the error.
func TestFrameWriterFailNoLeak(t *testing.T) {
	defer testutil.LeakCheck(t, 2, 5*time.Second)()
	big := make([]byte, mux.MaxPayload)
	var parked sync.WaitGroup
	for i := 0; i < 12; i++ {
		a, b := net.Pipe()
		w := newFrameWriter(a)
		switch i % 3 {
		case 0: // idle again after a batch the peer read
			w.write(mux.Frame{Type: mux.TypePing, Payload: []byte("hb")})
			io.ReadFull(b, make([]byte, mux.HeaderLen+2))
			waitFor(t, "an idle flusher", func() bool { q, _ := w.levels(); return q == 0 })
		case 1: // one write in flight, never read
			w.write(mux.Frame{Type: mux.TypeData, Stream: 1, Payload: []byte("stuck")})
		case 2: // at the high water mark, plus a writer parked behind it
			for q, _ := w.levels(); q < frameWriterHighWater; q, _ = w.levels() {
				w.write(mux.Frame{Type: mux.TypeData, Stream: 1, Payload: big})
			}
			parked.Add(1)
			go func() {
				defer parked.Done()
				if err := w.write(mux.Frame{Type: mux.TypeData, Stream: 1, Payload: big}); err == nil {
					t.Error("parked writer returned nil after fail")
				}
			}()
		}
		w.fail(net.ErrClosed)
		a.Close()
		<-w.done
		b.Close()
	}
	parked.Wait()
}

// pipeListener hands the gateway in-memory net.Pipe connections: no
// kernel buffering, so a peer that stops reading stalls the very next
// write — the deterministic stalled-peer fixture.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial connects to the gateway and opens stream 1 running program.
func (l *pipeListener) dial(t *testing.T, program string) net.Conn {
	a, b := net.Pipe()
	l.conns <- a
	if _, err := b.Write(mux.AppendFrame(nil, mux.Frame{Type: mux.TypeOpen, Stream: 1, Payload: mux.AppendOpen(nil, program, "")})); err != nil {
		t.Fatal(err)
	}
	return b
}

// burstProgs are programs that write in 512-byte pieces, as the echo
// server's blob filler does: burst writes 64 KiB and returns; flood
// writes 4 MiB, past any write budget, then waits for stdin EOF.
func burstProgs() map[string]proc.Program {
	write := func(stdout io.Writer, n int) {
		chunk := bytes.Repeat([]byte("b"), 512)
		for ; n > 0; n -= len(chunk) {
			stdout.Write(chunk)
		}
	}
	return map[string]proc.Program{
		"burst": func(stdin io.Reader, stdout io.Writer) error {
			write(stdout, 64<<10)
			return nil
		},
		"flood": func(stdin io.Reader, stdout io.Writer) error {
			write(stdout, 4<<20)
			io.Copy(io.Discard, stdin)
			return nil
		},
	}
}

// waitFor polls cond until it holds, failing t after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitServed waits until the gateway has served n streams.
func waitServed(t *testing.T, srv *MuxServer, n uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d streams served", n), func() bool { return srv.Served() >= n })
}

// TestMuxShutdownFlushesQueuedFrames: a program that finished while its
// output still sat in the write queue has that output and its CLOSE
// delivered by the clean drain — the drain contract's trailing frames —
// even while another connection's peer has stopped reading and holds
// its own flush until the deadline.
func TestMuxShutdownFlushesQueuedFrames(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	ln := newPipeListener()
	srv := ServeMux(ln, burstProgs(), MuxServerOptions{})
	c := ln.dial(t, "burst")
	defer c.Close()
	stalled := ln.dial(t, "burst")
	defer stalled.Close()
	waitServed(t, srv, 2) // finished; output queued, nothing read yet

	clean := make(chan bool, 1)
	go func() { clean <- srv.Shutdown(time.Second) }()
	<-srv.Draining()
	var data int
	var closed, goaway bool
	for _, f := range <-readFrames(c) {
		switch {
		case f.Type == mux.TypeData && f.Stream == 1 && !closed:
			data += len(f.Payload)
		case f.Type == mux.TypeClose && f.Stream == 1 && f.Flags == 0:
			closed = true
		case f.Type == mux.TypeGoaway && f.Stream == 0:
			goaway = true
		default:
			t.Fatalf("unexpected frame %s on stream %d", f.Type, f.Stream)
		}
	}
	if data != 64<<10 || !closed || !goaway {
		t.Fatalf("drain delivered %d DATA bytes, CLOSE %v, GOAWAY %v; want %d, true, true", data, closed, goaway, 64<<10)
	}
	if !<-clean {
		t.Fatal("drain reported streams cut; the stream had finished")
	}
}

// TestMuxShutdownStalledPeer: Shutdown(grace) returns by its deadline
// while the peer has stopped reading — whether the stream already
// finished with its output queued (a clean drain whose flush is cut at
// the deadline) or is still parked behind the full write budget (a cut).
func TestMuxShutdownStalledPeer(t *testing.T) {
	for _, tc := range []struct {
		program string
		clean   bool
	}{{"burst", true}, {"flood", false}} {
		t.Run(tc.program, func(t *testing.T) {
			defer testutil.LeakCheck(t, 10, 5*time.Second)()
			ln := newPipeListener()
			srv := ServeMux(ln, burstProgs(), MuxServerOptions{})
			c := ln.dial(t, tc.program)
			defer c.Close()
			if tc.clean {
				waitServed(t, srv, 1)
			} else {
				waitFor(t, "a full write queue", func() bool { return srv.Stats().WriteQueued >= frameWriterHighWater })
			}

			const grace = 200 * time.Millisecond
			start := time.Now()
			result := make(chan bool, 1)
			go func() { result <- srv.Shutdown(grace) }()
			select {
			case clean := <-result:
				if clean != tc.clean {
					t.Errorf("drain clean = %v, want %v", clean, tc.clean)
				}
			case <-time.After(grace + 5*time.Second):
				t.Fatal("Shutdown still waiting on a peer that stopped reading")
			}
			if took := time.Since(start); took > grace+2*time.Second {
				t.Errorf("Shutdown took %v with grace %v", took, grace)
			}
			if peak := srv.Stats().WriteQueuedPeak; peak < 64<<10 || peak > frameWriterHighWater+mux.HeaderLen+mux.MaxPayload {
				t.Errorf("write queue peak %d outside [64 KiB, budget + one frame]", peak)
			}
		})
	}
}

// TestMuxWriteQueueGauges: the write-queue levels in Stats are zero on an
// idle gateway and the peak survives the connection's teardown.
func TestMuxWriteQueueGauges(t *testing.T) {
	ln := newPipeListener()
	srv := ServeMux(ln, burstProgs(), MuxServerOptions{})
	if st := srv.Stats(); st.WriteQueued != 0 || st.WriteQueuedPeak != 0 {
		t.Fatalf("idle gateway reports queued %d, peak %d", st.WriteQueued, st.WriteQueuedPeak)
	}
	c := ln.dial(t, "burst")
	waitServed(t, srv, 1)
	if st := srv.Stats(); st.WriteQueued < 64<<10 {
		t.Fatalf("queued %d bytes behind an unread pipe, want at least 64 KiB", st.WriteQueued)
	}
	c.Close() // the peer hangs up: the connection tears down
	waitFor(t, "the connection's teardown", func() bool { return srv.Stats().Conns == 0 })
	if st := srv.Stats(); st.WriteQueued != 0 || st.WriteQueuedPeak < 64<<10 {
		t.Fatalf("after teardown queued %d, peak %d; want 0 and at least 64 KiB", st.WriteQueued, st.WriteQueuedPeak)
	}
	if !srv.Shutdown(time.Second) {
		t.Fatal("drain of an idle gateway reported streams cut")
	}
}
