package netx

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/testutil"
)

// queued reports how many bytes q holds.
func queued(q *stdinQueue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// waitQueued waits until q holds n bytes.
func waitQueued(t *testing.T, q *stdinQueue, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for queued(q) != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d bytes, want %d", queued(q), n)
		}
		runtime.Gosched()
	}
}

// parkedPut starts a put of b that must park on a queue bounded below
// len(b), and returns the channel its result arrives on.
func parkedPut(t *testing.T, q *stdinQueue, b []byte) <-chan bool {
	t.Helper()
	done := make(chan bool, 1)
	go func() { done <- q.put(b) }()
	waitQueued(t, q, q.max)
	select {
	case ok := <-done:
		t.Fatalf("put of %d bytes into a %d-byte queue returned %v without parking", len(b), q.max, ok)
	default:
	}
	return done
}

// TestStdinQueuePutParksAtBound: put queues at most max bytes and parks
// for the rest until the program reads; a drained queue holds no buffer.
func TestStdinQueuePutParksAtBound(t *testing.T) {
	var q stdinQueue
	q.init(8)
	done := parkedPut(t, &q, []byte("0123456789ab"))

	b := make([]byte, 16)
	if n, err := q.Read(b); err != nil || string(b[:n]) != "01234567" {
		t.Fatalf("first Read = %q, %v; want the 8 bytes that fit", b[:n], err)
	}
	if !<-done {
		t.Fatal("put reported stop on a live queue")
	}
	if n, err := q.Read(b); err != nil || string(b[:n]) != "89ab" {
		t.Fatalf("second Read = %q, %v; want the parked remainder", b[:n], err)
	}
	if q.buf != nil {
		t.Fatalf("drained queue still holds a %d-byte buffer", cap(q.buf))
	}
}

// TestStdinQueueCloseReadReleasesPut: the program's exit drops queued
// bytes and releases a put parked on the full queue with false.
func TestStdinQueueCloseReadReleasesPut(t *testing.T) {
	var q stdinQueue
	q.init(8)
	done := parkedPut(t, &q, []byte("0123456789ab"))

	q.closeRead()
	if <-done {
		t.Fatal("put parked across closeRead reported success")
	}
	if q.buf != nil {
		t.Fatalf("closeRead kept %d queued bytes", len(q.buf))
	}
	if n, err := q.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Fatalf("Read after closeRead = %d, %v; want 0, io.EOF", n, err)
	}
	if q.put([]byte("late")) {
		t.Fatal("put after closeRead reported success")
	}
}

// TestStdinQueueFinishDrainsFirst: finish keeps queued bytes readable,
// then Read reports the terminal disposition, io.EOF or the error.
func TestStdinQueueFinishDrainsFirst(t *testing.T) {
	boom := errors.New("boom")
	for _, end := range []error{io.EOF, boom} {
		var q stdinQueue
		q.init(64)
		if !q.put([]byte("tail")) {
			t.Fatal("put on a live queue reported stop")
		}
		q.finish(end)
		if q.put([]byte("late")) {
			t.Fatalf("put after finish(%v) reported success", end)
		}
		b := make([]byte, 16)
		if n, err := q.Read(b); err != nil || string(b[:n]) != "tail" {
			t.Fatalf("Read after finish(%v) = %q, %v; want the queued bytes", end, b[:n], err)
		}
		if n, err := q.Read(b); n != 0 || err != end {
			t.Fatalf("Read of a drained finished queue = %d, %v; want 0, %v", n, err, end)
		}
	}
}

// TestMuxStreamBufUnparksOnProgramExit drives the server-side StreamBuf
// bound end to end on one connection: a program that never reads its
// stdin is sent more than StreamBuf, which parks the demux loop, so a
// sibling stream's line is stuck behind it; once the program exits, its
// queued stdin is dropped, the demux loop moves on, and the sibling's
// echo completes.
func TestMuxStreamBufUnparksOnProgramExit(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	const streamBuf = 64
	exit := make(chan struct{})
	srv, err := NewMuxServer("127.0.0.1:0", map[string]proc.Program{
		"echo": echoProg,
		"sink": func(io.Reader, io.Writer) error { <-exit; return nil },
	}, MuxServerOptions{StreamBuf: streamBuf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(time.Second)
	var once sync.Once
	release := func() { once.Do(func() { close(exit) }) }
	defer release() // a failed check must not leave sink running past Shutdown

	pool := NewMuxPool(MuxOptions{MaxConns: 1})
	defer pool.Close()
	sink, err := pool.Open(srv.Addr(), "sink")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sibling, err := pool.Open(srv.Addr(), "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer sibling.Close()
	if pool.Conns(srv.Addr()) != 1 {
		t.Fatal("test needs both streams on one connection")
	}

	if _, err := sink.Write(bytes.Repeat([]byte("s"), 4*streamBuf)); err != nil {
		t.Fatal(err)
	}
	if _, err := sibling.Write([]byte("ping\n")); err != nil {
		t.Fatal(err)
	}
	echoed := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(sibling).ReadString('\n')
		echoed <- line
	}()
	select {
	case line := <-echoed:
		t.Fatalf("sibling echoed %q past a full StreamBuf: the demux loop did not park", line)
	case <-time.After(100 * time.Millisecond):
	}

	release()
	select {
	case line := <-echoed:
		if line != "ack:ping\n" {
			t.Fatalf("sibling echoed %q, want %q", line, "ack:ping\n")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sibling's echo never arrived: the demux loop stayed parked after the program exited")
	}
}
