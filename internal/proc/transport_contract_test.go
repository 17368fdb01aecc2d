// The transport contract suite: every transport the engine can sit on —
// virtual duplex, child-over-pipes, child-under-pty, and netx socket —
// must honor the same byte-channel contract, so the assertions live in
// one capability-annotated table instead of per-transport test files.
// Capabilities that genuinely differ (half-close, the TryRead/notify
// doorbell, how stream end is spelled) are declared per leg and the
// suite asserts both directions: a leg that claims a capability must
// exhibit it, and one that doesn't must refuse it detectably.
//
// The suite lives in package proc_test because the socket leg needs
// internal/netx, which itself imports proc.
package proc_test

import (
	"bytes"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netx"
	"repro/internal/proc"
	"repro/internal/testutil"
)

// contractLeg describes one transport under test.
type contractLeg struct {
	name string
	// skip gates the leg on host capabilities (skip, never fail).
	skip func(t *testing.T)
	// spawn starts a cat-like child (echoes stdin to stdout, exits on
	// EOF) under opt. cleanup tears down anything beyond the Process.
	spawn func(t *testing.T, opt proc.Options) (*proc.Process, func())
	// halfClose: CloseWrite delivers EOF to the child while its output
	// stays readable. Ptys have one bidirectional line and can't.
	halfClose bool
	// event: the unwrapped transport implements TryRead + SetReadNotify.
	event bool
	// cleanEOF: stream end arrives as io.EOF. A pty master instead
	// errors (EIO) when the child side hangs up.
	cleanEOF bool
	// owned: the transport hands chunks over by ownership transfer
	// (TryReadOwned) instead of copying. The socket and mux legs do.
	owned bool
}

func contractLegs() []contractLeg {
	return []contractLeg{
		{
			name: "virtual",
			spawn: func(t *testing.T, opt proc.Options) (*proc.Process, func()) {
				p, err := proc.SpawnVirtual("cat", func(stdin io.Reader, stdout io.Writer) error {
					io.Copy(stdout, stdin)
					return nil
				}, opt)
				if err != nil {
					t.Fatal(err)
				}
				return p, func() { p.Close() }
			},
			halfClose: true, event: true, cleanEOF: true,
		},
		{
			name: "pipe",
			skip: func(t *testing.T) { testutil.RequireCmd(t, "cat") },
			spawn: func(t *testing.T, opt proc.Options) (*proc.Process, func()) {
				p, err := proc.SpawnPipe("cat", nil, opt)
				if err != nil {
					t.Fatal(err)
				}
				return p, func() { p.Close(); p.Wait() }
			},
			halfClose: true, event: false, cleanEOF: true,
		},
		{
			name: "pty",
			skip: func(t *testing.T) { testutil.RequirePty(t); testutil.RequireCmd(t, "cat") },
			spawn: func(t *testing.T, opt proc.Options) (*proc.Process, func()) {
				opt.NoEcho = true
				opt.RawOutput = true
				p, err := proc.SpawnPty("cat", nil, opt)
				if err != nil {
					t.Fatal(err)
				}
				return p, func() { p.Close(); p.Kill(); p.Wait() }
			},
			halfClose: false, event: false, cleanEOF: false,
		},
		{
			name: "socket",
			spawn: func(t *testing.T, opt proc.Options) (*proc.Process, func()) {
				srv, err := netx.NewServer("127.0.0.1:0", func(stdin io.Reader, stdout io.Writer) error {
					io.Copy(stdout, stdin)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				nc, err := netx.Dial(srv.Addr(), netx.Options{})
				if err != nil {
					srv.Shutdown(0)
					t.Fatal(err)
				}
				p := proc.SpawnStream("cat", proc.KindNetwork, nc, nc.WaitStatus, opt)
				return p, func() {
					p.Close()
					if !srv.Shutdown(5 * time.Second) {
						t.Error("loopback server did not drain clean")
					}
				}
			},
			halfClose: true, event: true, cleanEOF: true, owned: true,
		},
		{
			// A session multiplexed over a pooled gateway connection: the
			// full contract — half-close via CLOSE(half) frames, the
			// TryRead/notify doorbell, clean per-stream EOF, and segment
			// ownership transfer — over one shared TCP connection.
			name: "mux",
			spawn: func(t *testing.T, opt proc.Options) (*proc.Process, func()) {
				srv, err := netx.NewMuxServer("127.0.0.1:0", map[string]proc.Program{
					"cat": func(stdin io.Reader, stdout io.Writer) error {
						io.Copy(stdout, stdin)
						return nil
					},
				}, netx.MuxServerOptions{})
				if err != nil {
					t.Fatal(err)
				}
				pool := netx.NewMuxPool(netx.MuxOptions{})
				st, err := pool.Open(srv.Addr(), "cat")
				if err != nil {
					pool.Close()
					srv.Shutdown(0)
					t.Fatal(err)
				}
				p := proc.SpawnStream("cat", proc.KindMux, st, st.WaitStatus, opt)
				return p, func() {
					p.Close()
					if !srv.Shutdown(5 * time.Second) {
						t.Error("gateway did not drain clean")
					}
					pool.Close()
				}
			},
			halfClose: true, event: true, cleanEOF: true, owned: true,
		},
	}
}

// endInput tells the child no more input is coming: half-close where the
// transport can, the canonical-mode EOF character where it can't (pty).
func endInput(t *testing.T, lg contractLeg, p *proc.Process) {
	t.Helper()
	if lg.halfClose {
		if err := p.CloseWrite(); err != nil {
			t.Fatalf("CloseWrite: %v", err)
		}
		return
	}
	if _, err := p.Write([]byte{0x04}); err != nil {
		t.Fatalf("write EOF char: %v", err)
	}
}

// readUntil reads byte-at-a-time until the collected output contains
// want or a deadline passes.
func readUntil(t *testing.T, p *proc.Process, want string) {
	t.Helper()
	var got bytes.Buffer
	one := make([]byte, 1)
	deadline := time.Now().Add(5 * time.Second)
	for !bytes.Contains(got.Bytes(), []byte(want)) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %q; got %q", want, got.String())
		}
		n, err := p.Read(one)
		got.Write(one[:n])
		if err != nil {
			t.Fatalf("read error %v; got %q, want %q", err, got.String(), want)
		}
	}
}

// drainToEnd reads until the stream reports its end and returns the
// terminal error.
func drainToEnd(t *testing.T, p *proc.Process) error {
	t.Helper()
	buf := make([]byte, 256)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("stream never ended after input closed")
		}
		if _, err := p.Read(buf); err != nil {
			return err
		}
	}
}

// TestTransportContractRoundTrip: bytes written reach the child, its
// echo comes back, ending input ends the stream with the leg's declared
// terminal condition, and the exit status is clean.
func TestTransportContractRoundTrip(t *testing.T) {
	for _, lg := range contractLegs() {
		lg := lg
		t.Run(lg.name, func(t *testing.T) {
			if lg.skip != nil {
				lg.skip(t)
			}
			defer testutil.LeakCheck(t, 10, 5*time.Second)()
			p, cleanup := lg.spawn(t, proc.Options{})
			defer cleanup()

			if _, err := p.Write([]byte("ping\n")); err != nil {
				t.Fatalf("write: %v", err)
			}
			readUntil(t, p, "ping\n")

			endInput(t, lg, p)
			err := drainToEnd(t, p)
			if lg.cleanEOF && err != io.EOF {
				t.Errorf("stream end = %v, want io.EOF", err)
			}
			if !lg.cleanEOF && err == nil {
				t.Error("stream end reported no error at all")
			}
			status, werr := p.Wait()
			if status != 0 || werr != nil {
				t.Errorf("Wait = (%d, %v), want (0, nil)", status, werr)
			}
		})
	}
}

// TestTransportContractNotify: event legs must expose the goroutine-free
// doorbell — idle TryRead parks nobody, arrival rings, EOF rings and is
// then readable as (0, true, io.EOF). Non-event legs must say so via
// EventCapable, not lie and block.
func TestTransportContractNotify(t *testing.T) {
	for _, lg := range contractLegs() {
		lg := lg
		t.Run(lg.name, func(t *testing.T) {
			if lg.skip != nil {
				lg.skip(t)
			}
			defer testutil.LeakCheck(t, 10, 5*time.Second)()
			p, cleanup := lg.spawn(t, proc.Options{})
			defer cleanup()

			if !lg.event {
				if p.EventCapable() {
					t.Fatalf("%s unexpectedly claims TryRead/SetReadNotify", lg.name)
				}
				return
			}
			if !p.EventCapable() {
				t.Fatalf("%s transport should be event-capable", lg.name)
			}

			rings := make(chan struct{}, 64)
			p.SetReadNotify(func() {
				select {
				case rings <- struct{}{}:
				default:
				}
			})
			buf := make([]byte, 64)
			if n, ok, err := p.TryRead(buf); n != 0 || ok || err != nil {
				t.Fatalf("idle TryRead = (%d, %v, %v), want (0, false, nil)", n, ok, err)
			}

			if _, err := p.Write([]byte("ding\n")); err != nil {
				t.Fatal(err)
			}
			select {
			case <-rings:
			case <-time.After(5 * time.Second):
				t.Fatal("doorbell never rang after child wrote")
			}
			var got []byte
			deadline := time.Now().Add(5 * time.Second)
			for !bytes.Contains(got, []byte("ding\n")) {
				if time.Now().After(deadline) {
					t.Fatalf("TryRead never yielded the echo; got %q", got)
				}
				n, ok, err := p.TryRead(buf)
				if err != nil {
					t.Fatalf("TryRead: %v (got %q)", err, got)
				}
				if ok {
					got = append(got, buf[:n]...)
				}
			}

			endInput(t, lg, p)
			deadline = time.Now().Add(5 * time.Second)
			for {
				if time.Now().After(deadline) {
					t.Fatal("TryRead never reported EOF after input closed")
				}
				n, ok, err := p.TryRead(buf)
				if ok && err == io.EOF {
					if n != 0 {
						t.Fatalf("EOF delivered with %d bytes", n)
					}
					break
				}
				if err != nil {
					t.Fatalf("TryRead: %v", err)
				}
				if !ok {
					select {
					case <-rings:
					case <-time.After(50 * time.Millisecond):
					}
				}
			}
		})
	}
}

// TestTransportContractOwned: owned legs must expose the zero-copy
// drain — idle TryReadOwned parks nobody, written bytes come back as
// whole released-once chunks, and stream end is (nil, true, io.EOF).
// Non-owned legs must refuse via OwnedCapable rather than hand out
// chunks with dangling ownership.
func TestTransportContractOwned(t *testing.T) {
	for _, lg := range contractLegs() {
		lg := lg
		t.Run(lg.name, func(t *testing.T) {
			if lg.skip != nil {
				lg.skip(t)
			}
			defer testutil.LeakCheck(t, 10, 5*time.Second)()
			p, cleanup := lg.spawn(t, proc.Options{})
			defer cleanup()

			if !lg.owned {
				if p.OwnedCapable() {
					t.Fatalf("%s unexpectedly claims ownership-transfer reads", lg.name)
				}
				return
			}
			if !p.OwnedCapable() {
				t.Fatalf("%s transport should support TryReadOwned", lg.name)
			}

			rings := make(chan struct{}, 64)
			p.SetReadNotify(func() {
				select {
				case rings <- struct{}{}:
				default:
				}
			})
			if o, ok, err := p.TryReadOwned(); o != nil || ok || err != nil {
				t.Fatalf("idle TryReadOwned = (%v, %v, %v), want (nil, false, nil)", o, ok, err)
			}

			if _, err := p.Write([]byte("ding\n")); err != nil {
				t.Fatal(err)
			}
			var got []byte
			deadline := time.Now().Add(5 * time.Second)
			for !bytes.Contains(got, []byte("ding\n")) {
				if time.Now().After(deadline) {
					t.Fatalf("TryReadOwned never yielded the echo; got %q", got)
				}
				o, ok, err := p.TryReadOwned()
				if err != nil {
					t.Fatalf("TryReadOwned: %v (got %q)", err, got)
				}
				if o != nil {
					if len(o.Bytes()) == 0 {
						t.Fatal("owned chunk with no payload")
					}
					got = append(got, o.Bytes()...)
					o.Release()
				}
				if !ok {
					select {
					case <-rings:
					case <-time.After(50 * time.Millisecond):
					}
				}
			}

			endInput(t, lg, p)
			deadline = time.Now().Add(5 * time.Second)
			for {
				if time.Now().After(deadline) {
					t.Fatal("TryReadOwned never reported EOF after input closed")
				}
				o, ok, err := p.TryReadOwned()
				if o != nil {
					o.Release()
					continue
				}
				if ok && err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("TryReadOwned: %v", err)
				}
				if !ok {
					select {
					case <-rings:
					case <-time.After(50 * time.Millisecond):
					}
				}
			}
		})
	}
}

// countingWrap stands in for a fault-injection wrapper: it counts the
// operations flowing through and forwards half-close, which Options
// documents as the wrapper's obligation.
type countingWrap struct {
	rw          io.ReadWriteCloser
	reads       atomic.Int64
	writes      atomic.Int64
	closeWrites atomic.Int64
}

func (c *countingWrap) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.rw.Read(b)
}

func (c *countingWrap) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.rw.Write(b)
}

func (c *countingWrap) Close() error { return c.rw.Close() }

func (c *countingWrap) CloseWrite() error {
	c.closeWrites.Add(1)
	if cw, ok := c.rw.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// TestTransportContractWrap: the WrapTransport hook must sit on the byte
// path of every transport — each engine read and write crosses it, and
// half-close routes through it to the real stream. A wrapped stream also
// loses the doorbell (the wrapper hides TryReader/ReadNotifier), which
// is what keeps fault-injected sessions on a pump under a scheduler.
func TestTransportContractWrap(t *testing.T) {
	for _, lg := range contractLegs() {
		lg := lg
		t.Run(lg.name, func(t *testing.T) {
			if lg.skip != nil {
				lg.skip(t)
			}
			defer testutil.LeakCheck(t, 10, 5*time.Second)()
			var wrap *countingWrap
			p, cleanup := lg.spawn(t, proc.Options{
				WrapTransport: func(rw io.ReadWriteCloser) io.ReadWriteCloser {
					wrap = &countingWrap{rw: rw}
					return wrap
				},
			})
			defer cleanup()
			if wrap == nil {
				t.Fatal("WrapTransport was not invoked")
			}
			if p.EventCapable() {
				t.Error("wrapped transport still claims the doorbell; fault injection would race the shard loop")
			}

			if _, err := p.Write([]byte("ping\n")); err != nil {
				t.Fatal(err)
			}
			readUntil(t, p, "ping\n")
			endInput(t, lg, p)
			drainToEnd(t, p)

			if wrap.reads.Load() == 0 || wrap.writes.Load() == 0 {
				t.Errorf("wrapper off the byte path: reads=%d writes=%d",
					wrap.reads.Load(), wrap.writes.Load())
			}
			if lg.halfClose && wrap.closeWrites.Load() == 0 {
				t.Error("CloseWrite bypassed the wrapper")
			}
		})
	}
}

// TestTransportContractCloseIdempotent: Close must be safe to call
// twice, returning the same verdict, and must end the stream for any
// reader still draining it.
func TestTransportContractCloseIdempotent(t *testing.T) {
	for _, lg := range contractLegs() {
		lg := lg
		t.Run(lg.name, func(t *testing.T) {
			if lg.skip != nil {
				lg.skip(t)
			}
			defer testutil.LeakCheck(t, 10, 5*time.Second)()
			p, cleanup := lg.spawn(t, proc.Options{})
			defer cleanup()

			err1 := p.Close()
			err2 := p.Close()
			if err1 != err2 {
				t.Errorf("second Close changed the verdict: %v then %v", err1, err2)
			}
			buf := make([]byte, 16)
			deadline := time.Now().Add(5 * time.Second)
			for {
				if time.Now().After(deadline) {
					t.Fatal("reads kept succeeding after Close")
				}
				if _, err := p.Read(buf); err != nil {
					break
				}
			}
		})
	}
}
