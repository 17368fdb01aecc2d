// Package faultify is a deterministic adversary for the expect engine's
// byte streams. It wraps a proc transport and perturbs the traffic between
// child and engine in the ways real ptys, schedulers, and serial lines do —
// output arriving one byte at a time, reads waking up late, writes going
// out short, transient EAGAIN-style errors, the line dropping mid-pattern —
// but driven by a seeded PRNG so a failing run can be replayed from its
// seed and schedule.
//
// The paper's correctness claim (§2, §7.4) is exactly that expect survives
// these conditions: patterns match "regardless of how the program divides
// its output" and slow arrival only costs rescans, never wrong answers.
// The conformance harness (internal/conformance) replays every shipped
// script through Transports built here and asserts the dialogue comes out
// byte-identical with the clean transport.
//
// Fault taxonomy:
//
//   - Resegmentation (MaxReadChunk): each Read delivers at most k bytes,
//     k drawn uniformly from [1, MaxReadChunk]; with MaxReadChunk == 1 the
//     stream arrives strictly one byte per engine wakeup, splitting every
//     multi-byte pattern across reads. Semantics-preserving.
//   - Read delay (ReadDelay, DelayEveryN): roughly one in DelayEveryN
//     reads sleeps up to ReadDelay before delivering, exercising expect's
//     timeout arithmetic around slow arrivals. Semantics-preserving as
//     long as delays stay well inside the script's timeout budget.
//   - Short writes (MaxWriteChunk): engine writes are split into chunks of
//     at most MaxWriteChunk bytes before reaching the child, modelling a
//     clogged pty output queue. Semantics-preserving (the child sees the
//     same byte sequence).
//   - Transient errors (TransientEveryN, WriteTransientEveryN): roughly
//     one in N reads/writes fails with ErrTransient (Temporary() == true)
//     before any data moves, the EAGAIN/EINTR the engine must absorb by
//     retrying. Semantics-preserving given a retrying engine.
//   - Stream cut (CutAfterBytes): after N bytes of child output have been
//     delivered the transport reports EOF forever — the line dropping with
//     a partial pattern in the buffer. Deliberately semantics-ALTERING;
//     the conformance mutation test uses it to prove divergences are
//     caught, and targeted tests use it for EOF-mid-pattern coverage.
//
// Event-capable streams stay event-capable: the hooks (Wrapper,
// TracedWrapper) keep a stream's non-blocking TryRead and its doorbell
// when it has both, so a wrapped virtual or socket session still runs on
// a shard. TryRead applies the same schedule as Read; a read delay reads
// as "not ready" until it has passed, and then rings the doorbell.
// Streams without them (ptys, pipes) get a wrapper without them too.
//
// Reproducibility contract: a Transport's choices are a pure function of
// (Schedule.Seed, the sequence of Read/Write calls on it); a TryRead that
// finds no bytes draws nothing, so polling does not move the schedule.
// With MaxReadChunk == 1 the delivered chunking is fully deterministic;
// larger values keep the adversary's choices fixed by the seed while the
// chunk boundaries additionally depend on arrival timing. Divergence
// reports therefore always carry both the seed and the schedule.
package faultify

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Counter names reported to the metrics sink.
const (
	CounterReads          = "faultify.reads"
	CounterReadsSplit     = "faultify.reads_resegmented"
	CounterReadDelays     = "faultify.read_delays"
	CounterReadTransients = "faultify.read_transient_errors"
	CounterWrites         = "faultify.writes"
	CounterWritesSplit    = "faultify.writes_split"
	CounterWriteTransient = "faultify.write_transient_errors"
	CounterEOFCuts        = "faultify.eof_cuts"
)

// ErrTransient is the injected EAGAIN-analogue: it reports Temporary() ==
// true, and a correct engine retries the operation instead of treating the
// stream as dead.
var ErrTransient error = transientError{}

type transientError struct{}

func (transientError) Error() string   { return "faultify: transient I/O error (injected EAGAIN)" }
func (transientError) Temporary() bool { return true }
func (transientError) Timeout() bool   { return false }

// Schedule describes one adversary: which fault classes are armed and the
// seed fixing every choice the PRNG makes. The zero value perturbs nothing
// (a clean pass-through).
type Schedule struct {
	// Seed fixes all PRNG draws. Two Transports with the same schedule
	// make identical choices at every decision point.
	Seed uint64
	// MaxReadChunk > 0 resegments reads: each Read returns at most k
	// bytes, k uniform in [1, MaxReadChunk].
	MaxReadChunk int
	// ReadDelay is the maximum injected pre-read sleep; DelayEveryN picks
	// roughly one in N reads to delay (both must be set to take effect).
	ReadDelay   time.Duration
	DelayEveryN int
	// MaxWriteChunk > 0 splits writes into chunks of at most this size.
	MaxWriteChunk int
	// TransientEveryN > 0 fails roughly one in N reads with ErrTransient.
	TransientEveryN int
	// WriteTransientEveryN > 0 fails roughly one in N write chunks with
	// ErrTransient after any earlier chunks have been delivered (a short
	// write: n < len(p) with a temporary error).
	WriteTransientEveryN int
	// CutAfterBytes > 0 forces EOF after that many bytes of child output
	// have been delivered to the engine. Semantics-altering by design.
	CutAfterBytes int64
}

// String renders the schedule compactly for divergence reports; the output
// plus the seed is everything needed to rebuild the adversary.
func (s Schedule) String() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	if s.MaxReadChunk > 0 {
		parts = append(parts, fmt.Sprintf("readchunk<=%d", s.MaxReadChunk))
	}
	if s.ReadDelay > 0 && s.DelayEveryN > 0 {
		parts = append(parts, fmt.Sprintf("delay<=%s/1in%d", s.ReadDelay, s.DelayEveryN))
	}
	if s.MaxWriteChunk > 0 {
		parts = append(parts, fmt.Sprintf("writechunk<=%d", s.MaxWriteChunk))
	}
	if s.TransientEveryN > 0 {
		parts = append(parts, fmt.Sprintf("readerr=1in%d", s.TransientEveryN))
	}
	if s.WriteTransientEveryN > 0 {
		parts = append(parts, fmt.Sprintf("writeerr=1in%d", s.WriteTransientEveryN))
	}
	if s.CutAfterBytes > 0 {
		parts = append(parts, fmt.Sprintf("cutafter=%dB", s.CutAfterBytes))
	}
	if len(parts) == 1 {
		parts = append(parts, "clean")
	}
	return strings.Join(parts, " ")
}

// Clean reports whether the schedule perturbs nothing.
func (s Schedule) Clean() bool {
	return s.MaxReadChunk == 0 && (s.ReadDelay == 0 || s.DelayEveryN == 0) &&
		s.MaxWriteChunk == 0 && s.TransientEveryN == 0 &&
		s.WriteTransientEveryN == 0 && s.CutAfterBytes == 0
}

// rng is splitmix64: tiny, seedable, and stable across Go releases —
// math/rand's stream is not guaranteed stable, and reproducibility of a
// fault schedule must survive toolchain upgrades.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Transport is the perturbing wrapper. Reads and writes may be issued from
// different goroutines (the engine's pump reads while the script thread
// sends), so each side owns an independent PRNG stream derived from the
// seed; choices on one side never depend on traffic on the other.
type Transport struct {
	rw    io.ReadWriteCloser
	sched Schedule
	sink  *metrics.Counters // optional external sink; nil is a no-op

	readMu    sync.Mutex
	readRng   rng
	chunk     []byte // refill buffer behind pending
	pending   []byte // bytes read from rw but not yet delivered
	delivered int64  // child-output bytes handed to the engine
	cut       bool   // CutAfterBytes reached: EOF forever
	// delayUntil is the end of a drawn read delay that has not yet been
	// served. The read that serves it delivers without drawing again.
	delayUntil time.Time
	notify     func() // the doorbell, rung when a TryRead's delay ends

	writeMu  sync.Mutex
	writeRng rng

	stats metrics.Counters // always-on internal accounting

	rec *trace.Recorder // optional flight recorder; nil records nothing
	sid int32           // spawn id tag on fault events (-1 when unknown)
}

// Wrap builds a Transport perturbing rw according to sched, reporting
// per-fault counters to sink (which may be nil).
func Wrap(rw io.ReadWriteCloser, sched Schedule, sink *metrics.Counters) *Transport {
	return &Transport{
		rw:    rw,
		sched: sched,
		sink:  sink,
		// Distinct derivation constants keep the two sides' streams
		// independent even though they share a seed.
		readRng:  rng{state: sched.Seed ^ 0x9e3779b97f4a7c15},
		writeRng: rng{state: sched.Seed ^ 0xc2b2ae3d27d4eb4f},
	}
}

// Wrapper returns a proc.Options.WrapTransport-shaped hook building a
// Transport per spawned process. Each process gets its own PRNG state
// (same seed), so single-process runs are unaffected by spawn order. The
// hook's transport has TryRead and SetReadNotify exactly when rw has
// both.
func Wrapper(sched Schedule, sink *metrics.Counters) func(io.ReadWriteCloser) io.ReadWriteCloser {
	return func(rw io.ReadWriteCloser) io.ReadWriteCloser {
		return Wrap(rw, sched, sink).events()
	}
}

// TracedWrapper is Wrapper plus flight recording: every injected fault
// (transient error, delay, stream cut) lands in rec as a KindFault event,
// so a post-mortem dump shows not only what the engine saw but what the
// adversary did to cause it. Resegmentation and write splitting are
// deliberately NOT recorded — with MaxReadChunk == 1 they fire on every
// read and would evict the events the dump exists to preserve. The wrapper
// is built before the engine assigns a spawn id, so fault events carry
// spawn_id -1; dump readers correlate them by sequence order instead.
func TracedWrapper(sched Schedule, sink *metrics.Counters, rec *trace.Recorder) func(io.ReadWriteCloser) io.ReadWriteCloser {
	return func(rw io.ReadWriteCloser) io.ReadWriteCloser {
		t := Wrap(rw, sched, sink)
		t.rec = rec
		t.sid = -1
		return t.events()
	}
}

// tryReader and readNotifier restate proc's event-capable transport
// contract (proc.TryReader, proc.ReadNotifier).
type tryReader interface {
	TryRead(b []byte) (n int, ok bool, err error)
}

type readNotifier interface {
	SetReadNotify(fn func())
}

// eventTransport is a Transport over a stream with a non-blocking read and
// a doorbell, and keeps both.
type eventTransport struct {
	*Transport
	tr tryReader
	rn readNotifier
}

// events returns t with its stream's TryRead and doorbell when the stream
// has both, and t alone otherwise, so proc.EventCapable stays true to the
// wrapped stream.
func (t *Transport) events() io.ReadWriteCloser {
	tr, ok := t.rw.(tryReader)
	rn, ok2 := t.rw.(readNotifier)
	if !ok || !ok2 {
		return t
	}
	return eventTransport{Transport: t, tr: tr, rn: rn}
}

// Schedule returns the transport's schedule (for divergence reports).
func (t *Transport) Schedule() Schedule { return t.sched }

// Stats returns a snapshot of the transport's internal fault counters.
func (t *Transport) Stats() map[string]int64 { return t.stats.Snapshot() }

func (t *Transport) count(name string, n int64) {
	t.stats.Add(name, n)
	t.sink.Add(name, n)
}

// recordFault logs an injected fault in the flight recorder, if armed.
// The fault path is already cold (a sleep, an error return, or EOF), so
// the extra event write costs nothing measurable.
func (t *Transport) recordFault(label string, n int64) {
	if t.rec.On() {
		t.rec.Record(trace.KindFault, t.sid, n, 0, false, label, "")
	}
}

// Read delivers child output, resegmented, delayed, cut, or transiently
// failed per the schedule.
func (t *Transport) Read(b []byte) (int, error) {
	t.readMu.Lock()
	defer t.readMu.Unlock()
	t.count(CounterReads, 1)

	if t.cut {
		return 0, io.EOF
	}
	if t.delayUntil.IsZero() {
		if t.drawTransient() {
			return 0, ErrTransient
		}
		t.drawDelay()
	}
	if !t.delayUntil.IsZero() {
		d := time.Until(t.delayUntil)
		t.delayUntil = time.Time{}
		t.readMu.Unlock()
		time.Sleep(d)
		t.readMu.Lock()
		if t.cut {
			return 0, io.EOF
		}
	}

	// Refill the pending buffer from the wrapped stream when empty.
	if len(t.pending) == 0 {
		n, err := t.rw.Read(t.refillBuf())
		if n > 0 {
			t.pending = t.chunk[:n]
		}
		if err != nil {
			if n == 0 {
				return 0, err
			}
			// Deliver the data first; the error resurfaces on the next
			// call (stash EOF by cutting only if it was a real EOF is
			// unnecessary: the wrapped stream will repeat it).
		}
	}
	return t.deliver(b)
}

// TryRead is Read without blocking: ok=false when the wrapped stream has
// nothing yet or a drawn delay has not passed. The schedule is the same:
// a transient fault is (0, true, ErrTransient), the cut is (0, true,
// io.EOF), and a delay reads as not ready until it has passed, when a
// timer rings the doorbell. A call that finds no bytes draws nothing.
func (e eventTransport) TryRead(b []byte) (int, bool, error) {
	t := e.Transport
	t.readMu.Lock()
	defer t.readMu.Unlock()
	if t.cut {
		return 0, true, io.EOF
	}
	if !t.delayUntil.IsZero() && time.Now().Before(t.delayUntil) {
		return 0, false, nil
	}
	if len(t.pending) == 0 {
		n, ok, err := e.tr.TryRead(t.refillBuf())
		if n == 0 {
			return 0, ok, err
		}
		t.pending = t.chunk[:n]
	}
	if t.delayUntil.IsZero() {
		t.count(CounterReads, 1)
		if t.drawTransient() {
			return 0, true, ErrTransient
		}
		if d := t.drawDelay(); d > 0 {
			time.AfterFunc(d, t.ring)
			return 0, false, nil
		}
	}
	t.delayUntil = time.Time{}
	n, err := t.deliver(b)
	return n, true, err
}

// SetReadNotify installs the doorbell on the wrapped stream and keeps it
// for the end of a delay.
func (e eventTransport) SetReadNotify(fn func()) {
	e.readMu.Lock()
	e.notify = fn
	e.readMu.Unlock()
	e.rn.SetReadNotify(fn)
}

// ring is a TryRead delay's timer: the delayed bytes are readable now.
func (t *Transport) ring() {
	t.readMu.Lock()
	fn := t.notify
	t.readMu.Unlock()
	if fn != nil {
		fn()
	}
}

// drawTransient draws whether this read fails with ErrTransient, and
// counts and records it if so. The caller holds readMu.
func (t *Transport) drawTransient() bool {
	if t.sched.TransientEveryN > 0 && t.readRng.intn(t.sched.TransientEveryN) == 0 {
		t.count(CounterReadTransients, 1)
		t.recordFault("read transient (injected EAGAIN)", t.delivered)
		return true
	}
	return false
}

// drawDelay draws whether this read is delayed and, if so, for how long,
// and sets delayUntil. The caller holds readMu.
func (t *Transport) drawDelay() time.Duration {
	if t.sched.ReadDelay <= 0 || t.sched.DelayEveryN <= 0 ||
		t.readRng.intn(t.sched.DelayEveryN) != 0 {
		return 0
	}
	t.count(CounterReadDelays, 1)
	// Uniform in (0, ReadDelay]; the duration is drawn from the PRNG so
	// the delay pattern is part of the reproducible schedule.
	d := time.Duration(1 + t.readRng.intn(int(t.sched.ReadDelay)))
	t.recordFault("read delay "+d.String(), t.delivered)
	t.delayUntil = time.Now().Add(d)
	return d
}

// refillBuf returns the buffer pending is refilled into; pending is empty
// whenever it is refilled, so one buffer serves every refill.
func (t *Transport) refillBuf() []byte {
	if t.chunk == nil {
		t.chunk = make([]byte, 4096)
	}
	return t.chunk
}

// deliver copies at most k pending bytes into b, k drawn per the
// resegmentation schedule, and applies the stream cut. The caller holds
// readMu and has pending bytes to deliver.
func (t *Transport) deliver(b []byte) (int, error) {
	// Resegment: deliver at most k bytes of what is pending.
	n := len(t.pending)
	if n > len(b) {
		n = len(b)
	}
	if t.sched.MaxReadChunk > 0 && n > t.sched.MaxReadChunk {
		k := 1 + t.readRng.intn(t.sched.MaxReadChunk)
		if n > k {
			n = k
			t.count(CounterReadsSplit, 1)
		}
	}
	// Stream cut: truncate at the cut point and report EOF afterwards.
	if t.sched.CutAfterBytes > 0 {
		remain := t.sched.CutAfterBytes - t.delivered
		if remain <= 0 {
			t.cut = true
			t.count(CounterEOFCuts, 1)
			t.recordFault("stream cut (forced EOF)", t.delivered)
			return 0, io.EOF
		}
		if int64(n) > remain {
			n = int(remain)
		}
	}
	copy(b, t.pending[:n])
	t.pending = t.pending[n:]
	t.delivered += int64(n)
	if t.sched.CutAfterBytes > 0 && t.delivered >= t.sched.CutAfterBytes {
		t.cut = true
		t.count(CounterEOFCuts, 1)
		t.recordFault("stream cut (forced EOF)", t.delivered)
	}
	return n, nil
}

// Write sends engine input to the child, split into short writes and
// transiently failed per the schedule. On ErrTransient the returned count
// says how much was actually delivered; callers retry the remainder.
func (t *Transport) Write(p []byte) (int, error) {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	t.count(CounterWrites, 1)

	written := 0
	for written < len(p) {
		if t.sched.WriteTransientEveryN > 0 && t.writeRng.intn(t.sched.WriteTransientEveryN) == 0 {
			t.count(CounterWriteTransient, 1)
			t.recordFault("write transient (injected EAGAIN)", int64(written))
			return written, ErrTransient
		}
		chunk := p[written:]
		if t.sched.MaxWriteChunk > 0 && len(chunk) > t.sched.MaxWriteChunk {
			k := 1 + t.writeRng.intn(t.sched.MaxWriteChunk)
			if len(chunk) > k {
				chunk = chunk[:k]
				t.count(CounterWritesSplit, 1)
			}
		}
		n, err := t.rw.Write(chunk)
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Close tears down the wrapped stream.
func (t *Transport) Close() error { return t.rw.Close() }

// CloseWrite forwards the half-close when the wrapped transport supports
// it, so EOF-on-stdin keeps working through the adversary.
func (t *Transport) CloseWrite() error {
	if cw, ok := t.rw.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}
