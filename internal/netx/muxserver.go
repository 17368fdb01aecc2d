// The server half of the session gateway: one accept loop whose every
// connection hosts many concurrent sessions via the internal/netx/mux
// frame protocol. Each OPEN admits one program instance whose stdin is
// fed by the connection's demux loop through a bounded buffer and whose
// stdout is framed back as DATA; admission is where backpressure lives:
// a tenant at quota, a connection or server at its session cap, or a
// draining gateway is refused with GOAWAY(stream, reason) — an explicit,
// prompt refusal instead of queue collapse.
//
// Drain contract (the PR-5 Shutdown(grace) contract extended with
// GOAWAY-then-drain, proved by TestMuxShutdownDrainsMidDialogue):
// Shutdown closes the listener, then sends GOAWAY(0) on every live
// connection — from that instant new OPENs are refused with "draining",
// but every stream admitted before the notice keeps exchanging DATA and
// runs to its own end within the grace window. Only streams still
// running at the deadline are cut. On a clean drain each connection's
// queued frames — the streams' trailing DATA and CLOSE — are written out
// before it is hung up, up to the same deadline. The drain is clean iff
// nothing was cut. The Draining gate channel closes after the listener
// does, so tests and supervisors can sequence against the drain start
// without polling.
package netx

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netx/mux"
	"repro/internal/proc"
)

// MuxServerOptions tunes gateway admission. The zero value admits
// without quotas.
type MuxServerOptions struct {
	// TenantQuota bounds concurrent sessions per tenant (0 = unlimited).
	TenantQuota int
	// MaxSessions bounds concurrent sessions across the gateway
	// (0 = unlimited).
	MaxSessions int
	// MaxConnSessions bounds concurrent sessions per connection
	// (0 = unlimited).
	MaxConnSessions int
	// StreamBuf bounds each session's stdin buffer between the demux
	// loop and the program (bytes, default 64 KiB). A program this far
	// behind parks the connection's demux loop — inbound backpressure
	// through TCP flow control, the same bound Conn ingest has.
	StreamBuf int
}

func (o MuxServerOptions) streamBuf() int {
	if o.StreamBuf <= 0 {
		return defaultReadBuf
	}
	return o.StreamBuf
}

// Refusal reasons carried in GOAWAY payloads and counted in Stats.
const (
	RefuseDraining    = "draining"
	RefuseQuota       = "quota"
	RefuseUnknownProg = "unknown program"
	RefuseServerLimit = "server session limit"
	RefuseConnLimit   = "connection session limit"
)

// MuxServer is the multiplexed session gateway: many programs, many
// sessions per connection.
type MuxServer struct {
	ln    net.Listener
	progs map[string]proc.Program
	opt   MuxServerOptions

	mu        sync.Mutex
	conns     map[*muxSrvConn]struct{}
	tenants   map[string]int
	active    int
	served    uint64
	refused   map[string]uint64
	closed    bool
	writePeak int // highest write-queue level of a torn-down connection
	draining  chan struct{}

	streamWG sync.WaitGroup // one per admitted stream
	connWG   sync.WaitGroup // one per connection loop
}

// NewMuxServer listens on addr (host:0 picks an ephemeral port) and
// serves the given program registry behind the mux protocol.
func NewMuxServer(addr string, progs map[string]proc.Program, opt MuxServerOptions) (*MuxServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeMux(ln, progs, opt), nil
}

// ServeMux starts the gateway accept loop on an existing listener,
// which it owns from here on.
func ServeMux(ln net.Listener, progs map[string]proc.Program, opt MuxServerOptions) *MuxServer {
	s := &MuxServer{
		ln:       ln,
		progs:    progs,
		opt:      opt,
		conns:    make(map[*muxSrvConn]struct{}),
		tenants:  make(map[string]int),
		refused:  make(map[string]uint64),
		draining: make(chan struct{}),
	}
	go s.acceptLoop()
	return s
}

// Addr reports the bound listen address.
func (s *MuxServer) Addr() string { return s.ln.Addr().String() }

// Draining is the drain-start gate: closed once Shutdown has closed the
// listener, so a subsequent dial is deterministically refused.
func (s *MuxServer) Draining() <-chan struct{} { return s.draining }

func (s *MuxServer) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed: Shutdown in progress
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			continue
		}
		sc := &muxSrvConn{s: s, c: c, w: newFrameWriter(c), streams: make(map[uint32]*muxSrvStream)}
		s.conns[sc] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go sc.readLoop()
	}
}

// ActiveSessions reports in-flight streams across all connections.
func (s *MuxServer) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Served reports streams whose program ran to completion.
func (s *MuxServer) Served() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

// MuxServerStats is one gateway's telemetry snapshot, read under a
// single lock hold so the counters are consistent with each other.
type MuxServerStats struct {
	// Active counts in-flight streams; Served those completed.
	Active int    `json:"active"`
	Served uint64 `json:"served"`
	// Conns counts live multiplexed connections.
	Conns int `json:"conns"`
	// Draining reports that Shutdown has begun.
	Draining bool `json:"draining"`
	// Tenants maps tenant → live streams (quota accounting).
	Tenants map[string]int `json:"tenants"`
	// Refused maps refusal reason → GOAWAY count.
	Refused map[string]uint64 `json:"refused"`
	// WriteQueued sums the frame bytes accepted for the connections'
	// sockets but not yet written; WriteQueuedPeak is the highest level
	// any one connection's queue has reached. Each connection's budget
	// is frameWriterHighWater (1 MiB): writers past it park.
	WriteQueued     int `json:"write_queued_bytes"`
	WriteQueuedPeak int `json:"write_queued_bytes_peak"`
}

// Stats snapshots the gateway.
func (s *MuxServer) Stats() MuxServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := MuxServerStats{
		Active:          s.active,
		Served:          s.served,
		Conns:           len(s.conns),
		Draining:        s.closed,
		Tenants:         make(map[string]int, len(s.tenants)),
		Refused:         make(map[string]uint64, len(s.refused)),
		WriteQueuedPeak: s.writePeak,
	}
	for sc := range s.conns {
		queued, peak := sc.w.levels()
		st.WriteQueued += queued
		st.WriteQueuedPeak = max(st.WriteQueuedPeak, peak)
	}
	for k, v := range s.tenants {
		st.Tenants[k] = v
	}
	for k, v := range s.refused {
		st.Refused[k] = v
	}
	return st
}

// admit decides one OPEN under the server lock: reserve the stream's
// quota slots, or name the refusal.
func (s *MuxServer) admit(sc *muxSrvConn, tenant, program string) (proc.Program, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, RefuseDraining
	}
	prog, ok := s.progs[program]
	if !ok {
		s.refused[RefuseUnknownProg]++
		return nil, RefuseUnknownProg
	}
	if s.opt.MaxSessions > 0 && s.active >= s.opt.MaxSessions {
		s.refused[RefuseServerLimit]++
		return nil, RefuseServerLimit
	}
	if s.opt.MaxConnSessions > 0 && sc.live >= s.opt.MaxConnSessions {
		s.refused[RefuseConnLimit]++
		return nil, RefuseConnLimit
	}
	if s.opt.TenantQuota > 0 && s.tenants[tenant] >= s.opt.TenantQuota {
		s.refused[RefuseQuota]++
		return nil, RefuseQuota
	}
	s.active++
	s.tenants[tenant]++
	sc.live++
	s.streamWG.Add(1)
	return prog, ""
}

// release returns one stream's quota slots and scores it served. The
// stream still holds its streamWG slot until its CLOSE is queued.
func (s *MuxServer) release(sc *muxSrvConn, tenant string) {
	s.mu.Lock()
	s.active--
	s.tenants[tenant]--
	if s.tenants[tenant] == 0 {
		delete(s.tenants, tenant)
	}
	sc.live--
	s.served++
	s.mu.Unlock()
}

// Shutdown is the GOAWAY-then-drain teardown (see the contract at the
// top of this file). It reports whether the drain was clean — no stream
// still running at the grace deadline had to be cut.
func (s *MuxServer) Shutdown(grace time.Duration) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.streamWG.Wait()
		s.connWG.Wait()
		return true
	}
	s.closed = true
	deadline := time.Now().Add(grace)
	conns := make([]*muxSrvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	s.ln.Close()
	close(s.draining)
	for _, sc := range conns {
		sc.writeFrame(mux.TypeGoaway, 0, 0, []byte(RefuseDraining))
	}

	done := make(chan struct{})
	go func() {
		s.streamWG.Wait()
		close(done)
	}()
	drained := false
	if grace > 0 {
		select {
		case <-done:
			drained = true
		case <-time.After(grace):
		}
	} else {
		select {
		case <-done:
			drained = true
		default:
		}
	}
	cut := 0
	s.mu.Lock()
	if !drained {
		cut = s.active
	}
	conns = conns[:0]
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	// Clean path: flush each connection's trailing DATA and CLOSE frames,
	// cutting a peer that stopped reading at the deadline, then hang up;
	// connections flush side by side, so one stalled peer cannot spend
	// the others' time. Cut path: hang up everything at once, which EOFs
	// every stream's stdin so the stragglers unwind.
	flushBy := deadline
	if !drained {
		flushBy = time.Time{}
	}
	var hangups sync.WaitGroup
	for _, sc := range conns {
		hangups.Add(1)
		go func() {
			defer hangups.Done()
			sc.teardown(flushBy)
		}()
	}
	hangups.Wait()
	<-done
	s.connWG.Wait()
	return cut == 0
}

// muxSrvConn is one gateway-side multiplexed connection.
type muxSrvConn struct {
	s *MuxServer
	c net.Conn
	w *frameWriter // the socket's flusher-owned write path

	smu     sync.Mutex
	streams map[uint32]*muxSrvStream

	live int // s.mu: admitted streams on this conn

	downOnce sync.Once
}

// muxSrvStream is one admitted session on a gateway connection.
type muxSrvStream struct {
	id      uint32
	tenant  string
	stdin   inbox       // legacy slab mode: demux copies in, program reads out
	discard atomic.Bool // client cancelled: stop framing its output
}

func (sc *muxSrvConn) writeFrame(t mux.Type, flags uint8, stream uint32, payload []byte) error {
	return sc.w.write(mux.Frame{Type: t, Flags: flags, Stream: stream, Payload: payload})
}

// readLoop demultiplexes one connection until it dies, routing OPENs
// through admission and DATA into per-stream stdin buffers.
func (sc *muxSrvConn) readLoop() {
	defer sc.s.connWG.Done()
	dec := mux.NewDecoder(newConnReader(sc.c))
	for {
		f, err := dec.Next()
		if err != nil {
			sc.teardown(time.Time{})
			return
		}
		switch f.Type {
		case mux.TypeOpen:
			sc.handleOpen(f)
		case mux.TypeData:
			sc.smu.Lock()
			st := sc.streams[f.Stream]
			sc.smu.Unlock()
			if st != nil {
				st.stdin.put(f.Payload) // blocks when full: TCP backpressure
			}
		case mux.TypeClose:
			sc.smu.Lock()
			st := sc.streams[f.Stream]
			sc.smu.Unlock()
			if st == nil {
				continue
			}
			if f.Flags&mux.FlagHalfClose == 0 {
				// Cancel: the client is gone; its program unwinds on stdin
				// EOF and its remaining output is discarded. (A DATA frame
				// already queued behind the cancel is harmless: the client
				// drops frames for streams it no longer knows.)
				st.discard.Store(true)
			}
			st.stdin.finish(io.EOF)
		case mux.TypePing:
			if f.Flags&mux.FlagAck == 0 {
				sc.writeFrame(mux.TypePing, mux.FlagAck, 0, f.Payload)
			}
		case mux.TypeGoaway:
			// Client-side goodbye: informational. Streams end by CLOSE or
			// by the connection going away.
		}
	}
}

// handleOpen admits or refuses one OPEN.
func (sc *muxSrvConn) handleOpen(f mux.Frame) {
	program, tenant, err := mux.ParseOpen(f.Payload)
	if err != nil {
		sc.writeFrame(mux.TypeGoaway, 0, f.Stream, []byte(err.Error()))
		return
	}
	sc.smu.Lock()
	_, dup := sc.streams[f.Stream]
	sc.smu.Unlock()
	if dup {
		sc.writeFrame(mux.TypeGoaway, 0, f.Stream, []byte("stream id in use"))
		return
	}
	prog, refuse := sc.s.admit(sc, tenant, program)
	if refuse != "" {
		sc.writeFrame(mux.TypeGoaway, 0, f.Stream, []byte(refuse))
		return
	}
	st := &muxSrvStream{id: f.Stream, tenant: tenant}
	st.stdin.init(sc.s.opt.streamBuf(), 0, true, nil)
	sc.smu.Lock()
	sc.streams[f.Stream] = st
	sc.smu.Unlock()
	go sc.runStream(st, prog)
}

// runStream runs one program instance over the stream: stdin from the
// demux buffer, stdout framed back as DATA, and a terminal CLOSE
// reporting the program's disposition. The quota slots are returned
// before CLOSE is queued, so a client that has seen CLOSE reads settled
// counts and may reopen at quota; the streamWG slot only after, so a
// drain still flushes the CLOSE.
func (sc *muxSrvConn) runStream(st *muxSrvStream, prog proc.Program) {
	err := prog(stdinReader{&st.stdin}, &streamWriter{sc: sc, st: st})
	sc.smu.Lock()
	delete(sc.streams, st.id)
	sc.smu.Unlock()
	st.stdin.closeRead() // drop undelivered stdin bytes
	flags := uint8(0)
	var payload []byte
	if err != nil {
		flags = mux.FlagError
		msg := err.Error()
		if len(msg) > 256 {
			msg = msg[:256]
		}
		payload = []byte(msg)
	}
	sc.s.release(sc, st.tenant)
	sc.writeFrame(mux.TypeClose, flags, st.id, payload)
	sc.s.streamWG.Done()
}

// teardown ends the connection exactly once: every live stream's stdin
// is finished so its program unwinds (scoring served), and the socket is
// closed. With a non-zero flushBy (Shutdown's clean path) the frames
// already queued are written first, but a peer that has stopped reading
// is cut at flushBy; a zero flushBy closes at once, cutting any write in
// flight. Either way the flusher has exited when teardown returns.
// Matching the one-conn server's semantics, a client that vanishes
// mid-stream hangs up its programs, it does not "cut" them.
func (sc *muxSrvConn) teardown(flushBy time.Time) {
	sc.downOnce.Do(func() {
		if !flushBy.IsZero() {
			sc.w.drain(flushBy)
		}
		sc.w.fail(net.ErrClosed)
		sc.c.Close()
		<-sc.w.done
		sc.smu.Lock()
		streams := make([]*muxSrvStream, 0, len(sc.streams))
		for _, st := range sc.streams {
			streams = append(streams, st)
		}
		sc.smu.Unlock()
		for _, st := range streams {
			st.stdin.finish(io.EOF)
		}
		_, peak := sc.w.levels()
		sc.s.mu.Lock()
		delete(sc.s.conns, sc)
		sc.s.writePeak = max(sc.s.writePeak, peak)
		sc.s.mu.Unlock()
	})
}

// stdinReader adapts a stream's demux buffer as the program's stdin.
type stdinReader struct{ q *inbox }

func (r stdinReader) Read(b []byte) (int, error) { return r.q.read(b) }

// streamWriter frames a program's stdout as DATA toward the client,
// splitting at the protocol's payload bound. Output after a cancel or a
// dead connection is swallowed so unwinding programs don't error-spin.
type streamWriter struct {
	sc *muxSrvConn
	st *muxSrvStream
}

func (w *streamWriter) Write(b []byte) (int, error) {
	total := len(b)
	for len(b) > 0 {
		chunk := b
		if len(chunk) > mux.MaxPayload {
			chunk = chunk[:mux.MaxPayload]
		}
		if w.st.discard.Load() {
			return total, nil
		}
		// A dead connection surfaces as a write error; unwinding programs
		// must not error-spin, so swallow it like the cancel case.
		if w.sc.w.write(mux.Frame{Type: mux.TypeData, Stream: w.st.id, Payload: chunk}) != nil {
			return total, nil
		}
		b = b[len(chunk):]
	}
	return total, nil
}
