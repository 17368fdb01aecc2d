// The client half of the session gateway: a connection-pooling mux
// client that multiplexes many expect sessions over few TCP connections
// using the internal/netx/mux frame protocol.
//
// A MuxStream is a full transport-contract citizen: blocking Read/Write,
// CloseWrite half-close, the event-capable TryRead + SetReadNotify
// doorbell pair, and the zero-copy TryReadOwned ownership transfer — so
// the sharded scheduler adopts a muxed session exactly like a direct
// socket session, with no scheduler changes. Each connection runs one
// demux goroutine that decodes frames and routes DATA payloads into
// per-stream bounded inboxes of pooled segments (the PR-6 owned-segment
// path, per stream); the inbound copy from the connection's read buffer
// into a leased segment is inherent to demultiplexing and is counted in
// IngestStats as copied bytes.
//
// Head-of-line isolation is bounded, not absolute: within a stream's
// StreamBuf receive window a slow consumer costs its siblings nothing;
// once a stream's window is full the demux goroutine parks, which stops
// reading the connection, which clogs every stream sharing it through
// TCP flow control — the same honest coupling HTTP/2 has once a
// receiver's window is exhausted. TestMuxHeadOfLineIsolation pins the
// in-window guarantee.
package netx

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/netx/mux"
	"repro/internal/proc"
)

// MuxOptions tunes a gateway client pool. The zero value is sensible.
type MuxOptions struct {
	// Tenant is the quota identity sent with every OPEN ("" is the
	// default tenant).
	Tenant string
	// MaxConns bounds connections per gateway address (default 8, the
	// E23 sweep uses up to 64).
	MaxConns int
	// MaxStreamsPerConn bounds concurrent streams per connection
	// (default 2048). Open fails with ErrPoolSaturated once every
	// allowed connection is full.
	MaxStreamsPerConn int
	// StreamBuf bounds each stream's receive inbox (bytes, default
	// 256 KiB) — the head-of-line isolation window: a consumer this far
	// behind parks the connection's demux loop.
	StreamBuf int
	// Stats, when non-nil, receives ingest accounting for all streams.
	Stats *metrics.IngestStats
	// Pool supplies the segment pool DATA payloads are leased into; nil
	// uses a shared process-wide pool.
	Pool *SegmentPool
}

const (
	defaultMuxConns     = 8
	defaultMuxStreams   = 2048
	defaultMuxStreamBuf = 256 << 10
	muxSegmentSize      = 8 << 10
	muxReadBufferSize   = 64 << 10
	muxClientGoingAway  = "client going away"
	muxRefusedPrefix    = "netx: gateway refused stream"
)

func (o MuxOptions) maxConns() int {
	if o.MaxConns <= 0 {
		return defaultMuxConns
	}
	return o.MaxConns
}

func (o MuxOptions) maxStreams() int {
	if o.MaxStreamsPerConn <= 0 {
		return defaultMuxStreams
	}
	return o.MaxStreamsPerConn
}

func (o MuxOptions) streamBuf() int {
	if o.StreamBuf <= 0 {
		return defaultMuxStreamBuf
	}
	return o.StreamBuf
}

// ErrPoolSaturated reports an Open against a pool whose every allowed
// connection is at its stream cap — the client-side admission bound.
var ErrPoolSaturated = errors.New("netx: mux pool saturated (MaxConns × MaxStreamsPerConn streams open)")

// ErrPoolClosed reports an Open against a closed pool.
var ErrPoolClosed = errors.New("netx: mux pool closed")

// GoAwayError is the terminal disposition of a stream the gateway
// refused (quota, drain, unknown program) or tore down by draining.
type GoAwayError struct{ Reason string }

func (e *GoAwayError) Error() string {
	return muxRefusedPrefix + ": " + e.Reason
}

// MuxPool is the connection-pooling gateway client: Open multiplexes a
// new session stream onto an existing connection to the gateway when one
// has capacity, dialing a new connection only below MaxConns. A
// connection the gateway sent GOAWAY(0) on is excluded from placement
// and closed once its last stream ends.
type MuxPool struct {
	opt MuxOptions

	mu     sync.Mutex
	conns  map[string][]*muxConn
	closed bool
	opened uint64 // streams ever opened, for introspection
}

// NewMuxPool returns an empty pool; connections are dialed on demand.
func NewMuxPool(opt MuxOptions) *MuxPool {
	return &MuxPool{opt: opt, conns: make(map[string][]*muxConn)}
}

// MuxPoolStats is a pool snapshot for telemetry and the load workbench.
type MuxPoolStats struct {
	Conns   int    // live connections across all gateways
	Streams int    // live streams across all connections
	Opened  uint64 // streams ever opened
}

// Stats snapshots the pool under one lock hold.
func (p *MuxPool) Stats() MuxPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := MuxPoolStats{Opened: p.opened}
	for _, cs := range p.conns {
		st.Conns += len(cs)
		for _, mc := range cs {
			st.Streams += mc.nstreams
		}
	}
	return st
}

// Conns reports live connections to one gateway address.
func (p *MuxPool) Conns(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns[addr])
}

// Open places a new session stream for program onto a pooled connection
// to the gateway at addr, dialing one if no connection has capacity and
// the per-address bound allows it. The OPEN is asynchronous: a gateway
// refusal (quota, drain) surfaces as a *GoAwayError from the stream's
// read side, promptly — never as a hang.
func (p *MuxPool) Open(addr, program string) (*MuxStream, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	var mc *muxConn
	for _, c := range p.conns[addr] {
		if !c.dead && !c.draining && c.nstreams < p.opt.maxStreams() {
			mc = c
			break
		}
	}
	if mc == nil {
		if len(p.conns[addr]) >= p.opt.maxConns() {
			p.mu.Unlock()
			return nil, ErrPoolSaturated
		}
		// Dial under the lock: placement stays strictly within MaxConns
		// even under a stampede of concurrent Opens (a loopback dial is
		// cheap next to the protocol churn a herd of extra connections
		// would cost).
		c, err := p.dial(addr)
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		p.conns[addr] = append(p.conns[addr], c)
		mc = c
	}
	mc.nstreams++
	p.opened++
	p.mu.Unlock()

	return mc.openStream(program)
}

func (p *MuxPool) dial(addr string) (*muxConn, error) {
	d := net.Dialer{Timeout: defaultDialTimeout}
	c, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	segPool := p.opt.Pool
	if segPool == nil {
		segPool = poolFor(muxSegmentSize)
	}
	mc := &muxConn{
		p:       p,
		addr:    addr,
		c:       c,
		pool:    segPool,
		w:       newFrameWriter(c),
		streams: make(map[uint32]*MuxStream),
		nextID:  1,
	}
	go mc.readLoop()
	return mc, nil
}

// releaseSlot returns a stream slot to the pool; a draining or closing
// connection is hung up once its last stream ends.
func (p *MuxPool) releaseSlot(mc *muxConn) {
	p.mu.Lock()
	mc.nstreams--
	retire := !mc.dead && mc.nstreams == 0 && (mc.draining || p.closed)
	if retire {
		p.removeLocked(mc)
	}
	p.mu.Unlock()
	if retire {
		mc.c.Close() // readLoop observes the close and tears down
	}
}

// removeLocked drops mc from the pool's placement list. Caller holds mu.
func (p *MuxPool) removeLocked(mc *muxConn) {
	mc.dead = true
	cs := p.conns[mc.addr]
	for i, c := range cs {
		if c == mc {
			cs[i] = cs[len(cs)-1]
			p.conns[mc.addr] = cs[:len(cs)-1]
			break
		}
	}
}

// Close hangs up every pooled connection. Streams still open finish with
// a clean EOF, matching Conn.Close's local-hangup semantics.
func (p *MuxPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var all []*muxConn
	for _, cs := range p.conns {
		all = append(all, cs...)
	}
	p.mu.Unlock()
	for _, mc := range all {
		mc.goodbye()
		mc.teardown(io.EOF)
	}
	return nil
}

// muxConn is one pooled gateway connection: a flusher-owned write path
// (frameWriter) and one demux goroutine routing inbound frames to
// streams. nstreams/draining/dead are guarded by the pool's mutex
// (placement state); the streams map by smu (routing state).
type muxConn struct {
	p    *MuxPool
	addr string
	c    net.Conn
	pool *SegmentPool
	w    *frameWriter

	smu     sync.Mutex
	streams map[uint32]*MuxStream
	nextID  uint32

	nstreams int  // pool.mu
	draining bool // pool.mu: GOAWAY(0) received
	dead     bool // pool.mu: removed from placement

	downOnce sync.Once
}

// openStream registers a fresh stream id and sends the OPEN frame.
func (mc *muxConn) openStream(program string) (*MuxStream, error) {
	st := &MuxStream{mc: mc, program: program}
	st.readEnd.init(mc.p.opt.streamBuf(), mc.pool.Size(), mc.p.opt.Stats)
	mc.smu.Lock()
	id := mc.nextID
	mc.nextID++
	st.id = id
	mc.streams[id] = st
	mc.smu.Unlock()
	payload := mux.AppendOpen(nil, program, mc.p.opt.Tenant)
	if err := mc.writeFrame(mux.TypeOpen, 0, id, payload); err != nil {
		// writeFrame's failure triggered teardown, which finishes (and
		// releases the slot of) every registered stream — ours included
		// unless we win the race to take it back.
		if mc.take(id) != nil {
			mc.p.releaseSlot(mc)
		}
		return nil, fmt.Errorf("netx: mux open %s: %w", program, err)
	}
	return st, nil
}

func (mc *muxConn) writeFrame(t mux.Type, flags uint8, stream uint32, payload []byte) error {
	err := mc.w.write(mux.Frame{Type: t, Flags: flags, Stream: stream, Payload: payload})
	if err != nil {
		mc.teardown(err)
	}
	return err
}

// take removes and returns a stream from the routing table.
func (mc *muxConn) take(id uint32) *MuxStream {
	mc.smu.Lock()
	st := mc.streams[id]
	delete(mc.streams, id)
	mc.smu.Unlock()
	return st
}

// goodbye tells the gateway no more OPENs are coming (best-effort).
func (mc *muxConn) goodbye() {
	mc.writeFrame(mux.TypeGoaway, 0, 0, []byte(muxClientGoingAway))
}

// readLoop is the demux goroutine: frames off the wire, payloads into
// per-stream inboxes by leased segment, control frames to stream and
// connection state.
func (mc *muxConn) readLoop() {
	dec := mux.NewDecoder(bufio.NewReaderSize(mc.c, muxReadBufferSize))
	for {
		f, err := dec.Next()
		if err != nil {
			if err == io.EOF || errors.Is(err, net.ErrClosed) {
				mc.teardown(io.EOF)
			} else {
				mc.teardown(err)
			}
			return
		}
		switch f.Type {
		case mux.TypeData:
			mc.smu.Lock()
			st := mc.streams[f.Stream]
			mc.smu.Unlock()
			if st == nil {
				continue // late frames after a local close are dropped
			}
			mc.deliver(st, f.Payload)
		case mux.TypeClose:
			st := mc.take(f.Stream)
			if st == nil {
				continue
			}
			if f.Flags&mux.FlagError != 0 {
				st.finish(fmt.Errorf("netx: remote program failed: %s", f.Payload))
			} else {
				st.finish(io.EOF)
			}
		case mux.TypeGoaway:
			if f.Stream == 0 {
				mc.startDrain()
				continue
			}
			if st := mc.take(f.Stream); st != nil {
				st.finish(&GoAwayError{Reason: string(f.Payload)})
			}
		case mux.TypePing:
			if f.Flags&mux.FlagAck == 0 {
				mc.writeFrame(mux.TypePing, mux.FlagAck, 0, f.Payload)
			}
		default: // a gateway must never send OPEN
			mc.teardown(fmt.Errorf("netx: protocol error: gateway sent %s frame", f.Type))
			return
		}
	}
}

// deliver copies one DATA payload into leased segments and queues them
// into the stream's inbox — the one inherent demux copy; from the inbox
// onward the segment travels by ownership transfer. A full inbox parks
// here: see the head-of-line bound in the package comment.
func (mc *muxConn) deliver(st *MuxStream, p []byte) {
	stats := mc.p.opt.Stats
	for len(p) > 0 {
		seg := mc.pool.Get()
		k := copy(seg.buf, p)
		seg.n = k
		stats.AddCopied(k)
		if !st.in.putSeg(seg) {
			return // stream closed locally; remaining payload is discard
		}
		p = p[k:]
	}
}

// startDrain marks the connection draining (GOAWAY(0) received): no new
// placements; it is hung up once the last in-flight stream ends.
func (mc *muxConn) startDrain() {
	p := mc.p
	p.mu.Lock()
	mc.draining = true
	retire := !mc.dead && mc.nstreams == 0
	if retire {
		p.removeLocked(mc)
	}
	p.mu.Unlock()
	if retire {
		mc.c.Close()
	}
}

// teardown ends the connection exactly once: the socket closes at once,
// cutting any write in flight (frames still queued are dropped; the
// gateway hangs up the connection's streams either way), every live
// stream gets the terminal disposition (io.EOF for a local/clean hangup,
// the wire error otherwise) and the pool forgets the connection. The
// flusher has exited when teardown returns.
func (mc *muxConn) teardown(err error) {
	mc.downOnce.Do(func() {
		mc.w.fail(err)
		mc.c.Close()
		<-mc.w.done
		mc.p.mu.Lock()
		if !mc.dead {
			mc.p.removeLocked(mc)
		}
		mc.p.mu.Unlock()
		mc.smu.Lock()
		streams := make([]*MuxStream, 0, len(mc.streams))
		for id, st := range mc.streams {
			streams = append(streams, st)
			delete(mc.streams, id)
		}
		mc.smu.Unlock()
		for _, st := range streams {
			st.finish(err)
		}
	})
}

// MuxStream is one session multiplexed over a pooled gateway connection.
// It satisfies the full proc transport contract: blocking Read/Write,
// CloseWrite half-close, TryRead/SetReadNotify event capability, and
// TryReadOwned zero-copy ownership transfer. Its read side is a readEnd,
// the one a socket Conn has; Read returns io.EOF at the clean end of the
// stream and a *GoAwayError for a gateway refusal.
type MuxStream struct {
	readEnd
	mc      *muxConn
	id      uint32
	program string

	closeOnce sync.Once
	wclosed   atomic.Bool
	closed    atomic.Bool
}

// Compile-time transport-contract conformance.
var (
	_ io.ReadWriteCloser = (*MuxStream)(nil)
	_ proc.TryReader     = (*MuxStream)(nil)
	_ proc.ReadNotifier  = (*MuxStream)(nil)
	_ proc.OwnedReader   = (*MuxStream)(nil)
)

// ID reports the stream's id on its connection.
func (st *MuxStream) ID() uint32 { return st.id }

// Program reports the gateway program this stream runs.
func (st *MuxStream) Program() string { return st.program }

// finish settles the terminal disposition exactly once and returns the
// stream's placement slot to the pool.
func (st *MuxStream) finish(err error) {
	st.settle(err, func() { st.mc.p.releaseSlot(st.mc) })
}

// Write frames b as DATA toward the gateway program, splitting at the
// protocol's payload bound.
func (st *MuxStream) Write(b []byte) (int, error) {
	if st.closed.Load() || st.wclosed.Load() {
		return 0, net.ErrClosed
	}
	written := 0
	for len(b) > 0 {
		chunk := b
		if len(chunk) > mux.MaxPayload {
			chunk = chunk[:mux.MaxPayload]
		}
		if err := st.mc.writeFrame(mux.TypeData, 0, st.id, chunk); err != nil {
			return written, err
		}
		written += len(chunk)
		b = b[len(chunk):]
	}
	return written, nil
}

// CloseWrite half-closes the stream: the gateway program reads EOF on
// its stdin while its remaining output stays readable here — the muxed
// analogue of a TCP FIN.
func (st *MuxStream) CloseWrite() error {
	if st.wclosed.Swap(true) || st.closed.Load() {
		return nil
	}
	return st.mc.writeFrame(mux.TypeClose, mux.FlagHalfClose, st.id, nil)
}

// Close cancels the stream locally: undelivered inbound bytes are
// dropped (segments back to their pool), reads see a clean EOF, and the
// gateway is told to discard the program's further output.
func (st *MuxStream) Close() error {
	st.closeOnce.Do(func() {
		st.closed.Store(true)
		if st.mc.take(st.id) != nil {
			// Stream still routable: send the cancel. A stream already
			// finished by CLOSE/GOAWAY/teardown needs no frame.
			st.mc.writeFrame(mux.TypeClose, 0, st.id, nil)
		}
		st.in.closeRead()
		st.finish(io.EOF)
	})
	return nil
}
