//go:build linux

package netx

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/testutil"
)

// pollerEcho stands up a loopback echo server, a deferred connection, and
// a poller owning its read side. Cleanup order matters: connection, then
// poller, then server drain.
func pollerEcho(t *testing.T, opt Options) (*Conn, *Poller, chan struct{}) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", func(stdin io.Reader, stdout io.Writer) error {
		io.Copy(stdout, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := DialDeferred(srv.Addr(), opt)
	if err != nil {
		srv.Shutdown(0)
		t.Fatal(err)
	}
	p, err := NewPoller()
	if err != nil {
		nc.Close()
		srv.Shutdown(0)
		t.Fatalf("NewPoller: %v", err)
	}
	rings := make(chan struct{}, 1)
	nc.SetReadNotify(func() {
		select {
		case rings <- struct{}{}:
		default:
		}
	})
	if err := p.Register(nc); err != nil {
		nc.Close()
		p.Close()
		srv.Shutdown(0)
		t.Fatalf("Register: %v", err)
	}
	t.Cleanup(func() {
		nc.Close()
		p.Close()
		if !srv.Shutdown(5 * time.Second) {
			t.Error("loopback server did not drain clean")
		}
	})
	return nc, p, rings
}

// drainOwned pulls owned chunks until want bytes arrived (verifying each
// against gen) or the stream ends; it returns the terminal error if the
// stream ended first.
func drainOwned(t *testing.T, nc *Conn, rings chan struct{}, want int, gen func(int) byte) error {
	t.Helper()
	seen := 0
	deadline := time.Now().Add(30 * time.Second)
	for seen < want {
		o, ok, err := nc.TryReadOwned()
		if o != nil {
			for i, b := range o.Bytes() {
				if b != gen(seen+i) {
					t.Fatalf("byte %d = %#x, want %#x", seen+i, b, gen(seen+i))
				}
			}
			seen += len(o.Bytes())
			o.Release()
			continue
		}
		if ok {
			return err
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled after %d of %d bytes", seen, want)
		}
		select {
		case <-rings:
		case <-time.After(50 * time.Millisecond):
		}
	}
	return nil
}

// TestPollerDeliversAndEOF: a registered connection runs zero reader
// goroutines — the poller loop moves the bytes — and a peer FIN arrives
// as the io.EOF disposition through the same owned-segment path.
func TestPollerDeliversAndEOF(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	nc, _, rings := pollerEcho(t, Options{})

	if got := nc.mode.Load(); got != modePolled {
		t.Fatalf("ingest mode = %d after Register, want modePolled", got)
	}

	msg := []byte("ding ding ding\n")
	if _, err := nc.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := drainOwned(t, nc, rings, len(msg), func(i int) byte { return msg[i] }); err != nil {
		t.Fatalf("stream ended early: %v", err)
	}

	// Half-close: echo drains, server closes, FIN must surface as EOF.
	if err := nc.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		o, ok, err := nc.TryReadOwned()
		if o != nil {
			o.Release()
			continue
		}
		if ok {
			if err != io.EOF {
				t.Fatalf("terminal disposition %v, want io.EOF", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("EOF never arrived through the poller")
		}
		select {
		case <-rings:
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// TestPollerBackpressureRoundTrip floods a tiny inbox so the poller must
// park the fd (inbox full) and re-arm from the space hook many times;
// every byte must still arrive exactly once and in order.
func TestPollerBackpressureRoundTrip(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	nc, _, rings := pollerEcho(t, Options{ReadBuf: 8 << 10})

	const total = 512 << 10
	pattern := func(i int) byte { return byte(i*131 + 3) }
	go func() {
		buf := make([]byte, 4096)
		for off := 0; off < total; {
			n := len(buf)
			if total-off < n {
				n = total - off
			}
			for i := 0; i < n; i++ {
				buf[i] = pattern(off + i)
			}
			if _, err := nc.Write(buf[:n]); err != nil {
				return
			}
			off += n
		}
	}()

	if err := drainOwned(t, nc, rings, total, pattern); err != nil {
		t.Fatalf("stream ended early: %v", err)
	}
}

// TestPollerRefusesIneligible: a NoPoller connection must be declined
// with ErrPollerUnavailable, leaving it deferred so the caller's
// fallback (StartIngest) still works.
func TestPollerRefusesIneligible(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv, err := NewServer("127.0.0.1:0", func(stdin io.Reader, stdout io.Writer) error {
		io.Copy(stdout, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if !srv.Shutdown(5 * time.Second) {
			t.Error("loopback server did not drain clean")
		}
	}()
	p, err := NewPoller()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	nc, err := DialDeferred(srv.Addr(), Options{NoPoller: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Register(nc); !errors.Is(err, ErrPollerUnavailable) {
		t.Errorf("Register err = %v, want ErrPollerUnavailable", err)
	}
	if got := nc.mode.Load(); got != modeDeferred {
		t.Errorf("refused conn left in mode %d, want deferred", got)
	}
	nc.Close()
}

// TestPollerRefusesStartedIngest: once a fallback reader owns the read
// side the poller must not double-own the socket.
func TestPollerRefusesStartedIngest(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	srv, err := NewServer("127.0.0.1:0", func(stdin io.Reader, stdout io.Writer) error {
		io.Copy(stdout, stdin)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if !srv.Shutdown(5 * time.Second) {
			t.Error("loopback server did not drain clean")
		}
	}()
	p, err := NewPoller()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	nc, err := Dial(srv.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := p.Register(nc); err == nil {
		t.Fatal("Register succeeded on a connection whose reader already started")
	}
	if got := nc.mode.Load(); got != modeReader {
		t.Fatalf("failed registration disturbed the running reader: mode %d", got)
	}
}
