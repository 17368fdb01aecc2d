package proc

import (
	"errors"
	"io"
	"sync"
)

// Pipe is a buffered in-memory byte pipe with backpressure: writers
// block once max bytes are buffered, the way a real pty's output queue
// clogs when nobody drains it (the paper notes free-running processes
// "will eventually clog the pty if not periodically flushed"). It carries
// each direction of a virtual Duplex and each gateway stream's stdin
// (internal/netx). A drained pipe drops its buffer, so an idle one holds
// none.
type Pipe struct {
	mu          sync.Mutex
	dataReady   *sync.Cond
	spaceReady  *sync.Cond
	buf         []byte
	max         int
	writeClosed bool
	readClosed  bool
	// notify, when set, is invoked (under mu) every time bytes become
	// readable or the pipe reaches EOF — the level-triggered doorbell the
	// sharded scheduler polls TryRead on. The callback must be non-blocking
	// and must not reenter the pipe.
	notify func()
}

// errPipeClosed is returned for writes into a pipe closed at either end,
// including a write parked on a full pipe when the close lands.
var errPipeClosed = errors.New("proc: write to closed pipe")

// NewPipe returns an empty pipe buffering at most max bytes.
func NewPipe(max int) *Pipe {
	// A degenerate bound would make every Write park forever on spaceReady
	// (len(buf) >= 0 is always true); clamp so NewDuplexPair(0) behaves as
	// the smallest real pipe instead of deadlocking.
	if max < 1 {
		max = 1
	}
	p := &Pipe{max: max}
	p.dataReady = sync.NewCond(&p.mu)
	p.spaceReady = sync.NewCond(&p.mu)
	return p
}

// Read blocks until bytes are buffered and copies them out; once the pipe
// is closed at either end and drained it returns io.EOF.
func (p *Pipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 {
		if p.writeClosed || p.readClosed {
			return 0, io.EOF
		}
		p.dataReady.Wait()
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	if len(p.buf) == 0 {
		p.buf = nil
	}
	p.spaceReady.Broadcast()
	return n, nil
}

// Write buffers b, parking while max bytes are queued; once the pipe is
// closed at either end it fails, reporting how much was written.
func (p *Pipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	written := 0
	for written < len(b) {
		if p.readClosed || p.writeClosed {
			return written, errPipeClosed
		}
		for len(p.buf) >= p.max {
			p.spaceReady.Wait()
			if p.readClosed || p.writeClosed {
				return written, errPipeClosed
			}
		}
		room := p.max - len(p.buf)
		chunk := b[written:]
		if len(chunk) > room {
			chunk = chunk[:room]
		}
		p.buf = append(p.buf, chunk...)
		written += len(chunk)
		p.dataReady.Broadcast()
		// Ring per chunk, not per call: a writer parked on spaceReady with
		// a full buffer has already made bytes readable, and a doorbell
		// deferred to return time would deadlock reader against writer.
		if p.notify != nil {
			p.notify()
		}
	}
	return written, nil
}

// TryRead is the non-blocking read the sharded scheduler drains pipes
// with: ok=false means no bytes were available and no terminal condition
// was reached (a blocking Read would have parked). At EOF it returns
// (0, true, io.EOF).
func (p *Pipe) TryRead(b []byte) (int, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.buf) == 0 {
		if p.writeClosed || p.readClosed {
			return 0, true, io.EOF
		}
		return 0, false, nil
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	if len(p.buf) == 0 {
		p.buf = nil
	}
	p.spaceReady.Broadcast()
	return n, true, nil
}

// SetReadNotify installs the readable-data doorbell. Data buffered before
// the handler was installed does not ring it; callers must do one
// unconditional sweep after installation or risk missing a child that
// spoke (or hung up) first.
func (p *Pipe) SetReadNotify(fn func()) {
	p.mu.Lock()
	p.notify = fn
	p.mu.Unlock()
}

// CloseWrite signals EOF to the reader once the buffer drains; later
// writes fail.
func (p *Pipe) CloseWrite() error {
	p.mu.Lock()
	p.writeClosed = true
	p.dataReady.Broadcast()
	p.spaceReady.Broadcast()
	if p.notify != nil {
		p.notify()
	}
	p.mu.Unlock()
	return nil
}

// CloseRead tears down the read side; subsequent writes fail.
func (p *Pipe) CloseRead() error {
	p.mu.Lock()
	p.readClosed = true
	p.buf = nil
	p.dataReady.Broadcast()
	p.spaceReady.Broadcast()
	if p.notify != nil {
		p.notify()
	}
	p.mu.Unlock()
	return nil
}

// Duplex is one endpoint of an in-memory bidirectional byte stream — the
// virtual-program analogue of a pty master or slave.
type Duplex struct {
	in  *Pipe // what this endpoint reads
	out *Pipe // what this endpoint writes
}

// NewDuplexPair creates a connected pair of endpoints, each side buffering
// up to capacity bytes in each direction.
func NewDuplexPair(capacity int) (*Duplex, *Duplex) {
	ab := NewPipe(capacity)
	ba := NewPipe(capacity)
	return &Duplex{in: ba, out: ab}, &Duplex{in: ab, out: ba}
}

func (d *Duplex) Read(b []byte) (int, error)  { return d.in.Read(b) }
func (d *Duplex) Write(b []byte) (int, error) { return d.out.Write(b) }

// TryRead non-blockingly drains this endpoint's inbound pipe (see
// Pipe.TryRead).
func (d *Duplex) TryRead(b []byte) (int, bool, error) { return d.in.TryRead(b) }

// SetReadNotify installs the inbound-data doorbell (see
// Pipe.SetReadNotify).
func (d *Duplex) SetReadNotify(fn func()) { d.in.SetReadNotify(fn) }

// Close shuts down both directions as seen from this endpoint: the peer
// reads EOF, and the peer's writes start failing.
func (d *Duplex) Close() error {
	d.out.CloseWrite()
	d.in.CloseRead()
	return nil
}

// CloseWrite half-closes: the peer reads EOF but can still write to us.
// close(1) in an expect script maps to this on virtual processes, matching
// "most interactive programs will detect EOF on their standard input".
func (d *Duplex) CloseWrite() error { return d.out.CloseWrite() }
