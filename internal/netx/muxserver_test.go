package netx

import (
	"bufio"
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/testutil"
)

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
