package netx

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

// echoProg replies "ack:<line>\n" per line and returns on stdin EOF.
func echoProg(stdin io.Reader, stdout io.Writer) error {
	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		fmt.Fprintf(stdout, "ack:%s\n", sc.Text())
	}
	return nil
}

func readLine(t *testing.T, r io.Reader) string {
	t.Helper()
	var line []byte
	b := make([]byte, 1)
	for {
		n, err := r.Read(b)
		if n == 1 {
			line = append(line, b[0])
			if b[0] == '\n' {
				return string(line)
			}
		}
		if err != nil {
			t.Fatalf("readLine: %v (got %q)", err, line)
		}
	}
}

func TestConnRoundTripAndHalfClose(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv, err := NewServer("127.0.0.1:0", echoProg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(time.Second)

	c, err := Dial(srv.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, c); got != "ack:hello\n" {
		t.Fatalf("got %q", got)
	}
	// Half-close: FIN delivers EOF to the program's stdin; its exit closes
	// the server side, which surfaces here as a clean EOF after the drain.
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 16)); err != io.EOF {
		t.Fatalf("want io.EOF after half-close drain, got %v", err)
	}
	if status, err := c.WaitStatus(); status != 0 || err != nil {
		t.Fatalf("WaitStatus = %d, %v; want 0, nil", status, err)
	}
	if c.Err() != nil {
		t.Fatalf("clean hangup should have nil Err, got %v", c.Err())
	}
}

func TestTryReadNotifyDoorbell(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv, err := NewServer("127.0.0.1:0", echoProg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(time.Second)

	c, err := Dial(srv.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	buf := make([]byte, 64)
	if n, ok, err := c.TryRead(buf); n != 0 || ok || err != nil {
		t.Fatalf("idle TryRead = (%d, %v, %v); want (0, false, nil)", n, ok, err)
	}

	ring := make(chan struct{}, 16)
	c.SetReadNotify(func() {
		select {
		case ring <- struct{}{}:
		default:
		}
	})
	if _, err := c.Write([]byte("ping\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ring:
	case <-time.After(5 * time.Second):
		t.Fatal("doorbell never rang after peer wrote")
	}
	var got strings.Builder
	for got.Len() < len("ack:ping\n") {
		n, ok, err := c.TryRead(buf)
		if err != nil {
			t.Fatalf("TryRead: %v", err)
		}
		if ok {
			got.Write(buf[:n])
			continue
		}
		select {
		case <-ring:
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled draining, have %q", got.String())
		}
	}
	if got.String() != "ack:ping\n" {
		t.Fatalf("drained %q", got.String())
	}

	// EOF must ring the doorbell too and then report (0, true, io.EOF).
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		n, ok, err := c.TryRead(buf)
		if ok && err == io.EOF && n == 0 {
			return
		}
		if err != nil {
			t.Fatalf("TryRead at EOF = (%d, %v, %v)", n, ok, err)
		}
		select {
		case <-ring:
		case <-deadline:
			t.Fatal("doorbell never rang for EOF")
		}
	}
}

// TestDeadlineAbsorbed pins the timeout division of labor: a silent peer
// must never surface as EOF or data — the transport arms no read
// deadline, and the engine's own timer is the only timeout a dialogue
// can observe.
func TestDeadlineAbsorbed(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	gate := make(chan struct{})
	srv, err := NewServer("127.0.0.1:0", func(stdin io.Reader, stdout io.Writer) error {
		<-gate // silent until released
		io.WriteString(stdout, "late\n")
		io.Copy(io.Discard, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(time.Second)

	c, err := Dial(srv.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Nothing may leak out of the quiet window.
	quiet := time.After(150 * time.Millisecond)
	buf := make([]byte, 16)
	for {
		n, ok, err := c.TryRead(buf)
		if n != 0 || ok || err != nil {
			t.Fatalf("silence leaked: TryRead = (%d, %v, %v)", n, ok, err)
		}
		select {
		case <-quiet:
		case <-time.After(time.Millisecond):
			continue
		}
		break
	}
	close(gate)
	if got := readLine(t, c); got != "late\n" {
		t.Fatalf("got %q after release", got)
	}
}

// TestResetDisposition pins RST plumbing: a hard peer reset is preserved
// as the terminal error (exit disposition 1), not masked as a clean EOF.
func TestResetDisposition(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *net.TCPConn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c.(*net.TCPConn)
	}()

	c, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sc := <-accepted
	sc.SetLinger(0) // close now sends RST, not FIN
	sc.Close()

	_, err = c.Read(make([]byte, 16))
	if err == nil || err == io.EOF {
		t.Fatalf("want preserved reset error, got %v", err)
	}
	if status, _ := c.WaitStatus(); status != 1 {
		t.Fatalf("reset should report status 1, got %d", status)
	}
	if c.Err() == nil {
		t.Fatal("Err() should preserve the wire error after a reset")
	}
}

func TestLocalCloseIsCleanEOF(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv, err := NewServer("127.0.0.1:0", echoProg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(time.Second)
	c, err := Dial(srv.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Read(make([]byte, 8)); err != io.EOF {
		t.Fatalf("read after local close = %v; want io.EOF", err)
	}
	if status, _ := c.WaitStatus(); status != 0 {
		t.Fatalf("local close is a deliberate hangup; status = %d, want 0", status)
	}
}

// TestWriteStallBound pins the outbound backpressure bound: against a
// peer that never drains, a Write blocks on the kernel buffers and then
// fails with ErrWriteStall instead of parking forever.
func TestWriteStallBound(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			hold <- c // never read from
		}
	}()
	c, err := Dial(ln.Addr().String(), Options{WriteStall: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() {
		if sc := <-hold; sc != nil {
			sc.Close()
		}
	}()

	chunk := make([]byte, 64<<10)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Write(chunk); err != nil {
			if !errors.Is(err, ErrWriteStall) {
				t.Fatalf("want ErrWriteStall, got %v", err)
			}
			return
		}
	}
	t.Fatal("writes never stalled against a non-draining peer")
}

// TestServerShutdownDrains proves the drain contract (satellite: no
// session dropped mid-dialogue on SIGTERM): Shutdown stops accepting
// immediately but an already-admitted session finishes its dialogue —
// second exchange included — before the server goes away.
func TestServerShutdownDrains(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv, err := NewServer("127.0.0.1:0", echoProg)
	if err != nil {
		t.Fatal(err)
	}

	c, err := Dial(srv.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("first\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, c); got != "ack:first\n" {
		t.Fatalf("got %q", got)
	}

	// Mid-dialogue, the daemon is told to go away.
	drained := make(chan bool, 1)
	go func() { drained <- srv.Shutdown(10 * time.Second) }()

	// The drain gate closes only after the listener is down, so a single
	// dial here is deterministically refused — no dial-until-refused poll
	// racing the listener close against in-flight accepts.
	select {
	case <-srv.Draining():
	case <-time.After(5 * time.Second):
		t.Fatal("drain gate never closed")
	}
	if nc, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
		nc.Close()
		t.Fatal("new dial accepted after the drain gate closed")
	}

	// But the in-flight dialogue is not dropped: it completes normally.
	if _, err := c.Write([]byte("second\n")); err != nil {
		t.Fatalf("mid-drain write failed: %v", err)
	}
	if got := readLine(t, c); got != "ack:second\n" {
		t.Fatalf("mid-drain exchange got %q", got)
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 8)); err != io.EOF {
		t.Fatalf("want clean EOF to finish the dialogue, got %v", err)
	}

	select {
	case clean := <-drained:
		if !clean {
			t.Fatal("drain reported sessions cut; dialogue completed, want clean")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned after the session finished")
	}
	if got := srv.Served(); got != 1 {
		t.Fatalf("Served = %d, want 1", got)
	}
}

// TestServerShutdownCutsAtDeadline is the other side of the contract:
// a session that outlives the grace window is force-closed and the drain
// reports unclean.
func TestServerShutdownCutsAtDeadline(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv, err := NewServer("127.0.0.1:0", echoProg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hi\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, c); got != "ack:hi\n" {
		t.Fatalf("got %q", got)
	}
	// Never send EOF: the program stays parked in its read loop.
	if clean := srv.Shutdown(30 * time.Millisecond); clean {
		t.Fatal("drain should report unclean when the grace deadline cuts a session")
	}
	// The cut surfaces on the client as end-of-stream (EOF or reset).
	if _, err := io.Copy(io.Discard, c); err != nil && !errors.Is(err, io.EOF) {
		// a reset disposition is acceptable here too; just don't hang
		t.Logf("cut session disposition: %v", err)
	}
}
