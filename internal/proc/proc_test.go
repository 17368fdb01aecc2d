package proc

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/testutil"
)

func TestMemPipeBasic(t *testing.T) {
	p := NewPipe(64)
	go func() {
		p.Write([]byte("hello"))
		p.CloseWrite()
	}()
	data, err := io.ReadAll(readerOnly{p})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Errorf("read %q", data)
	}
}

type readerOnly struct{ p *Pipe }

func (r readerOnly) Read(b []byte) (int, error) { return r.p.Read(b) }

// waitBuffered waits until p holds n bytes.
func waitBuffered(t *testing.T, p *Pipe, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		k := len(p.buf)
		p.mu.Unlock()
		if k == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipe holds %d bytes, want %d", k, n)
		}
		runtime.Gosched()
	}
}

// TestMemPipeBackpressure: a write parks once the pipe holds its bound
// and finishes as the reader drains; a drained pipe holds no buffer.
func TestMemPipeBackpressure(t *testing.T) {
	p := NewPipe(4)
	wrote := make(chan struct{})
	go func() {
		p.Write([]byte("abcdefgh")) // twice the capacity
		close(wrote)
	}()
	waitBuffered(t, p, 4)
	select {
	case <-wrote:
		t.Fatal("write of 8 bytes into 4-byte pipe did not block")
	case <-time.After(30 * time.Millisecond):
	}
	var got []byte
	buf := make([]byte, 8)
	for len(got) < 8 {
		n, err := p.Read(buf)
		if err != nil {
			t.Fatalf("Read after %q: %v", got, err)
		}
		got = append(got, buf[:n]...)
	}
	select {
	case <-wrote:
	case <-time.After(2 * time.Second):
		t.Fatal("writer still blocked after drain")
	}
	if string(got) != "abcdefgh" {
		t.Fatalf("read %q, want %q", got, "abcdefgh")
	}
	if p.buf != nil {
		t.Fatalf("drained pipe still holds a %d-byte buffer", cap(p.buf))
	}
}

// TestMemPipeWriteAfterCloseRead: once the read side is gone a write
// fails, whether it starts after CloseRead or is parked on the full pipe
// when CloseRead lands; the queued bytes are dropped and Read reports
// io.EOF.
func TestMemPipeWriteAfterCloseRead(t *testing.T) {
	for _, parked := range []bool{false, true} {
		p := NewPipe(8)
		done := make(chan error, 1)
		if parked {
			go func() {
				_, err := p.Write([]byte("0123456789ab"))
				done <- err
			}()
			waitBuffered(t, p, 8)
		}
		p.CloseRead()
		if parked {
			if err := <-done; err == nil {
				t.Error("write parked across CloseRead succeeded")
			}
			if p.buf != nil {
				t.Errorf("CloseRead kept %d queued bytes", len(p.buf))
			}
		}
		if _, err := p.Write([]byte("x")); err == nil {
			t.Errorf("write after CloseRead succeeded (parked=%v)", parked)
		}
		if n, err := p.Read(make([]byte, 8)); n != 0 || err != io.EOF {
			t.Errorf("Read after CloseRead = %d, %v; want 0, io.EOF (parked=%v)", n, err, parked)
		}
	}
}

// TestMemPipeReadAfterCloseWriteDrains: bytes written before CloseWrite
// stay readable, a later write fails, and the drained pipe reads io.EOF.
func TestMemPipeReadAfterCloseWriteDrains(t *testing.T) {
	p := NewPipe(16)
	p.Write([]byte("tail"))
	p.CloseWrite()
	if _, err := p.Write([]byte("late")); err == nil {
		t.Error("write after CloseWrite succeeded")
	}
	buf := make([]byte, 16)
	n, err := p.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Errorf("drain read = %q, %v", buf[:n], err)
	}
	if _, err := p.Read(buf); err != io.EOF {
		t.Errorf("after drain err = %v, want EOF", err)
	}
}

// Property: bytes written into a duplex arrive intact and in order on the
// peer, regardless of write chunking.
func TestDuplexOrderQuick(t *testing.T) {
	f := func(chunks [][]byte) bool {
		a, b := NewDuplexPair(128)
		var want bytes.Buffer
		for _, c := range chunks {
			want.Write(c)
		}
		go func() {
			for _, c := range chunks {
				if _, err := a.Write(c); err != nil {
					return
				}
			}
			a.CloseWrite()
		}()
		got, err := io.ReadAll(b)
		if err != nil {
			return false
		}
		return bytes.Equal(got, want.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDuplexBothDirections(t *testing.T) {
	a, b := NewDuplexPair(64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 16)
		n, _ := b.Read(buf)
		b.Write(bytes.ToUpper(buf[:n]))
	}()
	a.Write([]byte("ping"))
	buf := make([]byte, 16)
	n, err := a.Read(buf)
	if err != nil || string(buf[:n]) != "PING" {
		t.Errorf("echo = %q, %v", buf[:n], err)
	}
	wg.Wait()
}

func TestSpawnVirtualLifecycle(t *testing.T) {
	p, err := SpawnVirtual("greeter", func(stdin io.Reader, stdout io.Writer) error {
		fmt.Fprint(stdout, "hi\n")
		io.Copy(io.Discard, stdin)
		return nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != KindVirtual {
		t.Errorf("kind = %v", p.Kind())
	}
	if p.Pid() == 0 {
		t.Error("virtual pid is zero")
	}
	buf := make([]byte, 8)
	n, err := p.Read(buf)
	if err != nil || string(buf[:n]) != "hi\n" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	p.Close()
	code, err := p.Wait()
	if err != nil || code != 0 {
		t.Errorf("wait = %d, %v", code, err)
	}
}

func TestSpawnVirtualErrorStatus(t *testing.T) {
	p, err := SpawnVirtual("bad", func(io.Reader, io.Writer) error {
		return fmt.Errorf("synthetic")
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	code, err := p.Wait()
	if err != nil || code != 1 {
		t.Errorf("wait = %d, %v", code, err)
	}
	if p.Err() == nil {
		t.Error("Err() lost the program error")
	}
}

func TestVirtualPidsUnique(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 20; i++ {
		p, err := SpawnVirtual("x", func(stdin io.Reader, stdout io.Writer) error { return nil }, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if seen[p.Pid()] {
			t.Fatalf("duplicate pid %d", p.Pid())
		}
		seen[p.Pid()] = true
		p.Close()
	}
}

func TestSpawnPipeCat(t *testing.T) {
	p, err := SpawnPipe("cat", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Kind() != KindPipe {
		t.Errorf("kind = %v", p.Kind())
	}
	p.Write([]byte("round trip\n"))
	buf := make([]byte, 64)
	n, err := p.Read(buf)
	if err != nil || !strings.Contains(string(buf[:n]), "round trip") {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	p.CloseWrite()
	if code, err := p.Wait(); err != nil || code != 0 {
		t.Errorf("wait = %d, %v", code, err)
	}
}

func TestSpawnPtyCat(t *testing.T) {
	testutil.RequirePty(t)
	testutil.RequireCmd(t, "cat")
	p, err := SpawnPty("cat", nil, Options{RawOutput: true, NoEcho: true})
	if err != nil {
		t.Fatalf("SpawnPty: %v", err)
	}
	defer p.Close()
	if p.Kind() != KindPty {
		t.Errorf("kind = %v", p.Kind())
	}
	if p.Pid() <= 0 {
		t.Errorf("pid = %d", p.Pid())
	}
	p.Write([]byte("tty trip\n"))
	deadline := time.Now().Add(5 * time.Second)
	var acc []byte
	for time.Now().Before(deadline) {
		buf := make([]byte, 64)
		n, err := p.Read(buf)
		acc = append(acc, buf[:n]...)
		if strings.Contains(string(acc), "tty trip") {
			break
		}
		if err != nil {
			t.Fatalf("read error before echo: %v (got %q)", err, acc)
		}
	}
	if !strings.Contains(string(acc), "tty trip") {
		t.Fatalf("never saw data back through pty: %q", acc)
	}
	p.Kill()
	p.Wait()
}

// TestSpawnPtyIsATty pins §2.1: the child of a pty spawn believes it has a
// terminal; the child of a pipe spawn does not.
func TestSpawnPtyIsATty(t *testing.T) {
	testutil.RequirePty(t)
	testutil.RequireCmd(t, "sh")
	run := func(spawn func() (*Process, error)) string {
		p, err := spawn()
		if err != nil {
			t.Fatalf("spawn failed: %v", err)
		}
		defer p.Close()
		var acc []byte
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			buf := make([]byte, 64)
			n, err := p.Read(buf)
			acc = append(acc, buf[:n]...)
			if err != nil || bytes.Contains(acc, []byte("\n")) {
				break
			}
		}
		p.Wait()
		return string(acc)
	}
	ptyOut := run(func() (*Process, error) {
		return SpawnPty("sh", []string{"-c", "if [ -t 0 ]; then echo YES-TTY; else echo NO-TTY; fi"}, Options{})
	})
	if !strings.Contains(ptyOut, "YES-TTY") {
		t.Errorf("pty child does not see a tty: %q", ptyOut)
	}
	pipeOut := run(func() (*Process, error) {
		return SpawnPipe("sh", []string{"-c", "if [ -t 0 ]; then echo YES-TTY; else echo NO-TTY; fi"}, Options{})
	})
	if !strings.Contains(pipeOut, "NO-TTY") {
		t.Errorf("pipe child thinks it has a tty: %q", pipeOut)
	}
}

// TestDevTtyThroughPty pins the paper's /dev/tty property: "Programs that
// open /dev/tty will actually end up speaking to their pty."
func TestDevTtyThroughPty(t *testing.T) {
	testutil.RequirePty(t)
	testutil.RequireCmd(t, "sh")
	p, err := SpawnPty("sh", []string{"-c", "echo via-dev-tty > /dev/tty"}, Options{})
	if err != nil {
		t.Fatalf("spawn failed: %v", err)
	}
	defer p.Close()
	var acc []byte
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		buf := make([]byte, 64)
		n, err := p.Read(buf)
		acc = append(acc, buf[:n]...)
		if bytes.Contains(acc, []byte("via-dev-tty")) {
			break
		}
		if err != nil {
			break
		}
	}
	if !bytes.Contains(acc, []byte("via-dev-tty")) {
		t.Errorf("/dev/tty output did not reach the pty master: %q", acc)
	}
	p.Wait()
}

func TestSpawnPtyExitStatus(t *testing.T) {
	testutil.RequirePty(t)
	testutil.RequireCmd(t, "sh")
	p, err := SpawnPty("sh", []string{"-c", "exit 3"}, Options{})
	if err != nil {
		t.Fatalf("spawn failed: %v", err)
	}
	defer p.Close()
	code, err := p.Wait()
	if err != nil || code != 3 {
		t.Errorf("wait = %d, %v", code, err)
	}
}

func TestSpawnMissingBinary(t *testing.T) {
	if _, err := SpawnPty("/no/such/binary", nil, Options{}); err == nil {
		t.Error("pty spawn of missing binary succeeded")
	}
	if _, err := SpawnPipe("/no/such/binary", nil, Options{}); err == nil {
		t.Error("pipe spawn of missing binary succeeded")
	}
}

// TestSignalRealChild covers §7.3's signal story at the transport level:
// a child that traps SIGTERM reports it; Kill ends one that ignores EOF.
func TestSignalRealChild(t *testing.T) {
	testutil.RequirePty(t)
	testutil.RequireCmd(t, "sh")
	p, err := SpawnPty("sh", []string{"-c",
		`trap 'echo GOT-TERM; exit 0' TERM; echo armed; while true; do sleep 0.05; done`},
		Options{})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	defer p.Close()
	waitFor := func(needle string) bool {
		var acc []byte
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			buf := make([]byte, 128)
			n, err := p.Read(buf)
			acc = append(acc, buf[:n]...)
			if strings.Contains(string(acc), needle) {
				return true
			}
			if err != nil {
				return strings.Contains(string(acc), needle)
			}
		}
		return false
	}
	if !waitFor("armed") {
		t.Fatal("child never armed its trap")
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if !waitFor("GOT-TERM") {
		t.Fatal("child never reported the signal")
	}
	if code, err := p.Wait(); err != nil || code != 0 {
		t.Errorf("wait = %d, %v", code, err)
	}
}

// TestKillBackstopsEOFIgnorers: close alone cannot end a child that
// ignores hangups; Kill is the documented backstop.
func TestKillBackstopsEOFIgnorers(t *testing.T) {
	testutil.RequirePty(t)
	testutil.RequireCmd(t, "sh")
	p, err := SpawnPty("sh", []string{"-c",
		`trap '' HUP; echo running; while true; do sleep 0.05; done`}, Options{})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	p.Close()
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { p.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("HUP-ignoring child survived Kill")
	}
}
