//go:build linux

package netx

import (
	"errors"
	"io"
	"sync"
	"syscall"
)

// Poller is a per-shard readiness loop: one goroutine multiplexing the
// socket reads of every connection registered with it, via a raw epoll
// instance. Registering a deferred Conn replaces its would-be reader
// goroutine, collapsing ingest from O(connections) goroutines to
// O(shards).
//
// Invariants:
//
//  1. Single producer: once Register wins the mode CAS, the poller's loop
//     is the only goroutine that reads the socket and fills the inbox.
//  2. One-shot arming: every fd is registered EPOLLONESHOT, so readiness
//     fires once and stays disarmed until the loop (or the inbox's
//     space hook) explicitly re-arms it. A connection parked on a full
//     inbox is simply left disarmed — no level-triggered spin — and the
//     kernel's receive buffer filling behind it is the TCP flow-control
//     backpressure, exactly like a parked reader goroutine.
//  3. fd safety: all reads and epoll_ctl calls go through
//     syscall.RawConn, whose reference counting keeps the fd pinned
//     against a concurrent Close — the poller never touches a raw fd
//     number it stored earlier.
//  4. Fairness: one readiness event drains at most maxPollReads segments
//     before re-arming and yielding, so a firehose connection cannot
//     starve its shard-mates.
type Poller struct {
	epfd  int
	wakeR int
	wakeW int
	done  chan struct{}

	closeOnce sync.Once

	mu     sync.Mutex
	conns  map[int32]*Conn
	next   int32
	closed bool
}

// ErrPollerUnavailable reports that a connection cannot join a readiness
// loop (Options.NoPoller, a non-syscall net.Conn, a closed poller, or a
// platform without epoll) and should fall back to its own reader
// goroutine via StartIngest.
var ErrPollerUnavailable = errors.New("netx: readiness poller unavailable")

// maxPollReads bounds how many segments one readiness event may drain
// before the connection re-arms and yields the loop.
const maxPollReads = 8

// wakeToken is the reserved epoll token for the wake pipe.
const wakeToken = 0

// NewPoller creates a readiness loop and starts its goroutine.
func NewPoller() (*Poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	var pipe [2]int
	if err := syscall.Pipe2(pipe[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: wakeToken}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, pipe[0], &ev); err != nil {
		syscall.Close(epfd)
		syscall.Close(pipe[0])
		syscall.Close(pipe[1])
		return nil, err
	}
	p := &Poller{
		epfd:  epfd,
		wakeR: pipe[0],
		wakeW: pipe[1],
		done:  make(chan struct{}),
		conns: make(map[int32]*Conn),
		next:  1,
	}
	go p.loop()
	return p, nil
}

// Register hands a deferred connection's read side to this poller. On
// ErrPollerUnavailable (or any registration failure) the connection is
// left deferred and the caller should StartIngest the fallback reader.
func (p *Poller) Register(n *Conn) error {
	if n.opt.NoPoller {
		return ErrPollerUnavailable
	}
	sc, ok := n.c.(syscall.Conn)
	if !ok {
		return ErrPollerUnavailable
	}
	if !n.mode.CompareAndSwap(modeDeferred, modePolled) {
		return errors.New("netx: ingest already started")
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		n.mode.Store(modeDeferred)
		return err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		n.mode.Store(modeDeferred)
		return ErrPollerUnavailable
	}
	tok := p.next
	p.next++
	p.conns[tok] = n
	p.mu.Unlock()

	n.raw = raw
	n.poll = p
	n.pollTok = tok
	n.in.setSpaceFn(n.rearmFromSpace)
	if err := p.arm(n, syscall.EPOLL_CTL_ADD); err != nil {
		p.forget(tok)
		n.in.setSpaceFn(nil)
		n.poll = nil
		n.mode.Store(modeDeferred)
		return err
	}
	return nil
}

// arm (re)installs the one-shot readiness interest for n's fd, with the
// connection token in the event payload.
func (p *Poller) arm(n *Conn, op int) error {
	var ctlErr error
	err := n.raw.Control(func(fd uintptr) {
		ev := syscall.EpollEvent{
			Events: syscall.EPOLLIN | syscall.EPOLLRDHUP | syscall.EPOLLONESHOT,
			Fd:     n.pollTok,
		}
		ctlErr = syscall.EpollCtl(p.epfd, op, int(fd), &ev)
	})
	if err != nil {
		return err
	}
	return ctlErr
}

func (p *Poller) forget(tok int32) {
	p.mu.Lock()
	delete(p.conns, tok)
	p.mu.Unlock()
}

func (p *Poller) lookup(tok int32) *Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns[tok]
}

// loop is the readiness loop: wait, dispatch each ready connection's
// drain, repeat. Doorbell coalescing happens downstream — each putSeg
// rings the session's markDirty once per transition, and the shard steps
// its touched sessions once per ingest batch — so one epoll round of N
// ready sockets costs the shard one sweep, not N.
func (p *Poller) loop() {
	defer close(p.done)
	events := make([]syscall.EpollEvent, 128)
	for {
		nev, err := syscall.EpollWait(p.epfd, events, -1)
		if err != nil {
			if errors.Is(err, syscall.EINTR) {
				continue
			}
			p.cleanup()
			return
		}
		for i := 0; i < nev; i++ {
			tok := events[i].Fd
			if tok == wakeToken {
				p.mu.Lock()
				closed := p.closed
				p.mu.Unlock()
				if closed {
					p.cleanup()
					return
				}
				var drain [64]byte
				syscall.Read(p.wakeR, drain[:])
				continue
			}
			if c := p.lookup(tok); c != nil {
				c.pollReady()
			}
		}
	}
}

// cleanup finishes any connection still registered (a forced poller
// shutdown with live sessions reads as a clean hangup, the same verdict a
// killed reader goroutine would produce) and releases the kernel objects.
func (p *Poller) cleanup() {
	p.mu.Lock()
	conns := p.conns
	p.conns = make(map[int32]*Conn)
	p.mu.Unlock()
	for _, c := range conns {
		c.finish(io.EOF)
	}
	syscall.Close(p.epfd)
	syscall.Close(p.wakeR)
	syscall.Close(p.wakeW)
}

// Close stops the loop and waits for it to exit. Idempotent.
func (p *Poller) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		syscall.Write(p.wakeW, []byte{1})
		<-p.done
	})
}

// pollReady drains one readiness event: lease a segment, read the socket
// through the RawConn (fd pinned against Close), queue the segment whole,
// until EAGAIN, EOF, a hard error, a full inbox, or the fairness budget.
// Runs only on the poller's loop goroutine.
func (n *Conn) pollReady() {
	for reads := 0; reads < maxPollReads; reads++ {
		if n.closed.Load() {
			n.poll.forget(n.pollTok)
			return
		}
		if !n.in.hasRoom() {
			// Park without re-arming (invariant 2); the inbox's space hook
			// re-arms when the engine drains. Recheck after publishing the
			// park so a drain racing this window cannot strand the fd with
			// neither side re-arming.
			n.parked.Store(true)
			if n.in.hasRoom() && n.parked.Swap(false) {
				continue
			}
			return
		}
		seg := n.pool.Get()
		var k int
		var rerr error
		cerr := n.raw.Read(func(fd uintptr) bool {
			k, rerr = syscall.Read(int(fd), seg.buf)
			return true
		})
		if k > 0 {
			seg.n = k
			if !n.in.putSeg(seg) {
				n.finish(io.EOF)
				n.poll.forget(n.pollTok)
				return
			}
		} else {
			seg.Release()
		}
		if cerr != nil {
			// Local close raced the read; Close has already set the clean
			// disposition, this finish is a no-op backstop.
			n.finish(io.EOF)
			n.poll.forget(n.pollTok)
			return
		}
		switch {
		case rerr == nil && k > 0:
			continue
		case rerr == nil: // read 0: FIN, clean hangup
			n.finish(io.EOF)
			n.poll.forget(n.pollTok)
			return
		case rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK:
			n.rearm()
			return
		case rerr == syscall.EINTR:
			continue
		default: // RST and friends: preserved disposition
			n.finish(rerr)
			n.poll.forget(n.pollTok)
			return
		}
	}
	// Budget spent with the socket still hot: re-arm and yield so
	// shard-mates on this loop get their turn (invariant 4).
	n.rearm()
}

// rearm re-enables one-shot readiness after it fired. Errors are
// deliberately dropped: the only causes are a concurrently closing fd,
// and Close finishes the dialogue itself.
func (n *Conn) rearm() {
	if n.poll == nil || n.closed.Load() {
		return
	}
	n.poll.arm(n, syscall.EPOLL_CTL_MOD)
}

// rearmFromSpace is the inbox's space hook: when the engine frees inbox
// room and the producer is parked, wake the fd back up.
func (n *Conn) rearmFromSpace() {
	if n.parked.Swap(false) {
		n.rearm()
	}
}

// pollDetach drops the poller's token for a locally closed connection.
// The kernel removes the fd from the interest set when the socket closes;
// only the token map needs cleaning here.
func (n *Conn) pollDetach() {
	if n.poll != nil {
		n.poll.forget(n.pollTok)
	}
}
