// Package proc is the process substrate of the expect engine: it spawns
// interactive programs and hands back a two-way byte channel to them
// (Figure 2 of the paper). Three transports are provided:
//
//   - pty: a real child process behind a pseudo-terminal, the paper's
//     mechanism (§2.1); programs opening /dev/tty talk to the engine.
//   - pipe: a real child over plain pipes — kept deliberately, because the
//     paper's comparisons (stelnet, §9; terminal-size programs, §2.1) need
//     a pipe-backed mode to demonstrate what ptys fix.
//   - virtual: an in-process Go function speaking over an in-memory duplex
//     stream. Tests and benchmarks use this to run thousands of dialogues
//     hermetically; the simulated programs of internal/programs run on
//     either a virtual transport or a real binary interchangeably.
package proc

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/metrics"
	"repro/internal/pty"
	"repro/internal/trace"
)

// Kind names a transport flavor.
type Kind string

// Transport kinds.
const (
	KindPty     Kind = "pty"
	KindPipe    Kind = "pipe"
	KindVirtual Kind = "virtual"
	KindNetwork Kind = "network"
	// KindMux is a session multiplexed over a pooled gateway connection
	// (netx.MuxStream adopted via SpawnStream).
	KindMux Kind = "mux"
)

// Options configures spawning.
type Options struct {
	// Prof receives phase timings (pty init, fork); nil disables profiling.
	Prof *metrics.Profiler
	// Rows and Cols set the pty window size (pty transport only).
	// Zero values leave the kernel defaults.
	Rows, Cols uint16
	// RawOutput disables output post-processing on the pty slave so child
	// "\n" bytes arrive unmangled (no "\r\n" translation).
	RawOutput bool
	// NoEcho disables echo on the pty slave. Without it, everything the
	// engine sends is echoed back by the tty driver and shows up in the
	// match buffer — real expect scripts live with this; tests that want
	// exact streams turn it off.
	NoEcho bool
	// Env overrides the child environment (nil inherits).
	Env []string
	// Dir sets the child working directory.
	Dir string
	// BufferCap bounds each direction of a virtual transport (bytes).
	// Zero means a generous default.
	BufferCap int
	// WrapTransport, when non-nil, wraps the raw byte channel to the child
	// before the engine sees it. This is the injection point for
	// fault-injection transports (internal/faultify) and any other
	// stream-level instrumentation: the wrapper observes exactly the bytes
	// the kernel (or virtual duplex) would have delivered. If the wrapper
	// supports CloseWrite it should forward it to the wrapped stream, or
	// half-close stops working on pipe/virtual transports.
	WrapTransport func(io.ReadWriteCloser) io.ReadWriteCloser
	// Rec, when armed, receives a spawn event per successful spawn (pid,
	// program, transport kind), tagged with TraceSID — the engine passes
	// the reserved spawn id so the recording reads in script terms.
	Rec      *trace.Recorder
	TraceSID int32
}

const defaultBufferCap = 1 << 20

// wrap applies the WrapTransport hook, if any, to a freshly created
// transport stream.
func (o Options) wrap(rw io.ReadWriteCloser) io.ReadWriteCloser {
	if o.WrapTransport != nil {
		return o.WrapTransport(rw)
	}
	return rw
}

// recordSpawn logs a successful spawn in the flight recorder, if armed.
func (o Options) recordSpawn(name string, kind Kind, pid int) {
	if o.Rec.On() {
		o.Rec.Record(trace.KindSpawn, o.TraceSID, int64(pid), 0, false, name, string(kind))
	}
}

// Program is an in-process interactive program: it reads its "terminal"
// from stdin and writes to stdout, returning when the conversation ends.
// An io.EOF from stdin is the hangup signal.
type Program func(stdin io.Reader, stdout io.Writer) error

// Process is a spawned entity of any transport kind.
type Process struct {
	name string
	kind Kind
	rw   io.ReadWriteCloser
	pid  int

	cmd *exec.Cmd
	pt  *pty.Pty

	closeOnce sync.Once
	closeErr  error

	waitOnce   sync.Once
	waitStatus int
	waitErr    error
	virtDone   chan struct{}
	virtErr    error
	waitFn     func() (int, error)
}

var virtualPidCounter int64 = 70000

// SpawnPty starts program args under a freshly allocated pseudo-terminal.
func SpawnPty(name string, args []string, opt Options) (*Process, error) {
	stopPty := opt.Prof.Start(metrics.PhasePty)
	pt, err := pty.Open()
	if err != nil {
		stopPty()
		return nil, err
	}
	slave, err := pt.OpenSlave()
	if err != nil {
		pt.Close()
		stopPty()
		return nil, err
	}
	if opt.Rows != 0 || opt.Cols != 0 {
		if err := pty.SetWinsize(pt.Master, opt.Rows, opt.Cols); err != nil {
			slave.Close()
			pt.Close()
			stopPty()
			return nil, err
		}
	}
	if opt.RawOutput {
		if err := pty.DisableOutputProcessing(slave); err != nil {
			slave.Close()
			pt.Close()
			stopPty()
			return nil, err
		}
	}
	if opt.NoEcho {
		if err := pty.SetEcho(slave, false); err != nil {
			slave.Close()
			pt.Close()
			stopPty()
			return nil, err
		}
	}
	stopPty()

	cmd := exec.Command(name, args...)
	cmd.Stdin = slave
	cmd.Stdout = slave
	cmd.Stderr = slave // stderr overloads the stdout path, per §2.1
	cmd.Env = opt.Env
	cmd.Dir = opt.Dir
	cmd.SysProcAttr = &syscall.SysProcAttr{
		Setsid:  true,
		Setctty: true,
		Ctty:    0, // stdin, in the child's descriptor space
	}
	stopFork := opt.Prof.Start(metrics.PhaseFork)
	err = cmd.Start()
	stopFork()
	slave.Close() // parent keeps only the master
	if err != nil {
		pt.Close()
		return nil, fmt.Errorf("proc: spawn %s: %w", name, err)
	}
	opt.recordSpawn(name, KindPty, cmd.Process.Pid)
	return &Process{
		name: name,
		kind: KindPty,
		rw:   opt.wrap(pt.Master),
		pid:  cmd.Process.Pid,
		cmd:  cmd,
		pt:   pt,
	}, nil
}

// pipeRW glues a child's stdout (read side) and stdin (write side).
type pipeRW struct {
	io.Reader
	w io.WriteCloser
	r io.Closer
}

func (p *pipeRW) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p *pipeRW) Close() error {
	err := p.w.Close()
	if cerr := p.r.Close(); err == nil {
		err = cerr
	}
	return err
}

// CloseWrite half-closes the child's stdin, delivering EOF while output
// remains readable.
func (p *pipeRW) CloseWrite() error { return p.w.Close() }

// SpawnPipe starts program args over plain pipes (no terminal semantics).
func SpawnPipe(name string, args []string, opt Options) (*Process, error) {
	cmd := exec.Command(name, args...)
	cmd.Env = opt.Env
	cmd.Dir = opt.Dir
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	stopFork := opt.Prof.Start(metrics.PhaseFork)
	err = cmd.Start()
	stopFork()
	if err != nil {
		return nil, fmt.Errorf("proc: spawn %s: %w", name, err)
	}
	opt.recordSpawn(name, KindPipe, cmd.Process.Pid)
	return &Process{
		name: name,
		kind: KindPipe,
		rw:   opt.wrap(&pipeRW{Reader: stdout, w: stdin, r: stdout}),
		pid:  cmd.Process.Pid,
		cmd:  cmd,
	}, nil
}

// SpawnVirtual runs program in-process over an in-memory duplex stream.
// The fork phase is charged for symmetry with real spawns.
func SpawnVirtual(name string, program Program, opt Options) (*Process, error) {
	capacity := opt.BufferCap
	if capacity <= 0 {
		capacity = defaultBufferCap
	}
	stopFork := opt.Prof.Start(metrics.PhaseFork)
	engineSide, programSide := NewDuplexPair(capacity)
	p := &Process{
		name:     name,
		kind:     KindVirtual,
		rw:       opt.wrap(engineSide),
		pid:      int(atomic.AddInt64(&virtualPidCounter, 1)),
		virtDone: make(chan struct{}),
	}
	go func() {
		err := program(programSide, programSide)
		programSide.Close()
		p.virtErr = err
		close(p.virtDone)
	}()
	stopFork()
	opt.recordSpawn(name, KindVirtual, p.pid)
	return p, nil
}

// SpawnStream adopts an already-established byte stream — typically a
// netx socket connection — as a Process of the given kind. The stream
// passes through the same WrapTransport hook and spawn recording as the
// fork-based transports, so fault injection and tracing compose over it
// unchanged. wait, when non-nil, supplies the exit status once the
// stream's dialogue is over (netx maps clean hangup → 0, wire error → 1);
// nil makes Wait return status 0 immediately. The pid is synthetic, like
// a virtual program's.
func SpawnStream(name string, kind Kind, rw io.ReadWriteCloser, wait func() (int, error), opt Options) *Process {
	p := &Process{
		name:   name,
		kind:   kind,
		rw:     opt.wrap(rw),
		pid:    int(atomic.AddInt64(&virtualPidCounter, 1)),
		waitFn: wait,
	}
	opt.recordSpawn(name, kind, p.pid)
	return p
}

// Name returns the spawned program name.
func (p *Process) Name() string { return p.name }

// Kind returns the transport kind.
func (p *Process) Kind() Kind { return p.kind }

// Pid returns the process id (synthetic for virtual programs). This is the
// value the paper's spawn command returns — "Note that this is not
// equivalent to the descriptor spawn_id".
func (p *Process) Pid() int { return p.pid }

// Read reads child output from the transport.
func (p *Process) Read(b []byte) (int, error) { return p.rw.Read(b) }

// Write sends input to the child.
func (p *Process) Write(b []byte) (int, error) { return p.rw.Write(b) }

// TryReader is the non-blocking read half of an event-capable transport:
// TryRead returns ok=false when a blocking Read would have parked, and
// (0, true, io.EOF) once the stream is finished.
type TryReader interface {
	TryRead(b []byte) (n int, ok bool, err error)
}

// ReadNotifier is the doorbell half: fn is invoked whenever bytes become
// readable or EOF is reached. fn must be non-blocking and must not call
// back into the transport. Data present (or EOF reached) before
// installation does not ring it.
type ReadNotifier interface {
	SetReadNotify(fn func())
}

// EventCapable reports whether the transport supports the non-blocking
// TryRead + SetReadNotify pair the sharded scheduler needs to own a
// session without a dedicated reader goroutine. Virtual transports,
// sockets and mux streams qualify, and so do they behind a faultify
// wrapper, which keeps the pair; ptys and pipes do not, wrapped or not,
// and their sessions keep a pump.
func (p *Process) EventCapable() bool {
	_, tr := p.rw.(TryReader)
	_, rn := p.rw.(ReadNotifier)
	return tr && rn
}

// TryRead forwards to the transport's non-blocking read; callers must
// check EventCapable first.
func (p *Process) TryRead(b []byte) (int, bool, error) {
	return p.rw.(TryReader).TryRead(b)
}

// SetReadNotify forwards the doorbell installation; callers must check
// EventCapable first.
func (p *Process) SetReadNotify(fn func()) {
	p.rw.(ReadNotifier).SetReadNotify(fn)
}

// Owned is a chunk of child output whose buffer ownership travels with
// it: the holder may alias Bytes until it calls Release, at which point
// the backing storage returns to its pool and every alias dies. This is
// the unit of zero-copy ingest — a pooled read segment handed from the
// socket reader to the engine whole instead of being copied through an
// intermediate slab.
type Owned interface {
	// Bytes returns the payload; valid only until Release.
	Bytes() []byte
	// Release returns the backing buffer to its owner. Must be called
	// exactly once; the payload must not be touched afterwards.
	Release()
}

// OwnedReader is the ownership-transfer read half of a zero-copy
// transport: TryReadOwned pops one whole owned chunk without copying,
// returning ok=false when nothing is buffered and (nil, true, io.EOF)
// once the stream is finished and drained.
type OwnedReader interface {
	TryReadOwned() (Owned, bool, error)
}

// OwnedCapable reports whether the transport can hand output chunks to
// the engine by ownership transfer. Requires the event pair too — owned
// ingest rides the same doorbell discipline as TryRead.
func (p *Process) OwnedCapable() bool {
	_, ok := p.rw.(OwnedReader)
	return ok && p.EventCapable()
}

// TryReadOwned forwards to the transport's ownership-transfer read;
// callers must check OwnedCapable first.
func (p *Process) TryReadOwned() (Owned, bool, error) {
	return p.rw.(OwnedReader).TryReadOwned()
}

// Transport exposes the raw transport for capability probes that need
// more than the forwarding methods (test harnesses, shard adoption).
func (p *Process) Transport() io.ReadWriteCloser { return p.rw }

// CloseWrite half-closes the channel toward the child when the transport
// supports it (pipe/virtual), delivering EOF on the child's stdin. Pty
// transports have a single bidirectional line, so CloseWrite is a no-op
// and callers should use Close.
func (p *Process) CloseWrite() error {
	type writeCloser interface{ CloseWrite() error }
	if wc, ok := p.rw.(writeCloser); ok {
		return wc.CloseWrite()
	}
	return nil
}

// Close tears down the connection to the child: "most interactive programs
// will detect EOF on their standard input and exit; thus close usually
// suffices to kill the process as well" (§3.2).
func (p *Process) Close() error {
	p.closeOnce.Do(func() {
		p.closeErr = p.rw.Close()
	})
	return p.closeErr
}

// Kill forcibly terminates a real child; it is the backstop for programs
// that ignore EOF/SIGHUP.
func (p *Process) Kill() error {
	if p.cmd != nil && p.cmd.Process != nil {
		return p.cmd.Process.Kill()
	}
	return nil
}

// Signal delivers sig to a real child (no-op for virtual programs).
func (p *Process) Signal(sig os.Signal) error {
	if p.cmd != nil && p.cmd.Process != nil {
		return p.cmd.Process.Signal(sig)
	}
	return nil
}

// Wait blocks until the child exits and returns its exit status. For
// virtual programs the status is 0, or 1 when the program returned an
// error (available via Err).
func (p *Process) Wait() (int, error) {
	p.waitOnce.Do(func() {
		switch {
		case p.cmd != nil:
			err := p.cmd.Wait()
			if err == nil {
				p.waitStatus = 0
				return
			}
			if ee, ok := err.(*exec.ExitError); ok {
				p.waitStatus = ee.ExitCode()
				return
			}
			p.waitErr = err
		case p.waitFn != nil:
			p.waitStatus, p.waitErr = p.waitFn()
		case p.virtDone != nil:
			<-p.virtDone
			if p.virtErr != nil {
				p.waitStatus = 1
			}
		}
	})
	return p.waitStatus, p.waitErr
}

// Err returns the error a virtual program returned, if any (after exit).
func (p *Process) Err() error {
	if p.virtDone != nil {
		select {
		case <-p.virtDone:
			return p.virtErr
		default:
			return nil
		}
	}
	return nil
}
