package netx

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"repro/internal/netx/mux"
)

// frameWriterHighWater is each connection's write-queue budget: a writer
// that finds this many bytes queued (including the batch in the
// flusher's write) parks until the flusher drains below it, so a slow
// reader backpressures the whole connection instead of growing the heap.
const frameWriterHighWater = 1 << 20

// frameWriter is the write path shared by both ends of a multiplexed
// connection. One flusher goroutine owns the socket: write encodes the
// frame onto the pending buffer under the lock and returns, and the
// flusher hands everything pending to one write(2). While that batch is
// in the kernel the next frames queue behind it, so a program writing in
// small pieces pays one syscall per batch, not one per write, and at
// 100k streams over a few dozen sockets the gateway spends its core
// matching instead of in the kernel. An idle flusher is woken by the
// first frame queued, so nothing waits on a timer.
//
// A flag-less DATA frame whose predecessor in pending is a flag-less
// DATA frame for the same stream extends that frame in place — payload
// appended, header length patched, up to mux.MaxPayload — the way a pty
// merges a child's small writes into one read: an output burst reaches
// the peer as one frame, one read, one segment chain and one rescan. A
// merge never crosses another stream's frame, a frame of another type
// or with flags, or a batch handed to the kernel, so every boundary that
// carries meaning survives; DATA payload boundaries carry none.
//
// Ordering is append order: whoever holds the lock first is on the wire
// first, which preserves the per-stream OPEN < DATA < CLOSE discipline
// both sides rely on. A nil return from write means "accepted"; a later
// socket error surfaces through fail and connection teardown, exactly
// like bytes sitting in the kernel buffer when the peer vanishes.
type frameWriter struct {
	c net.Conn

	mu      sync.Mutex
	wake    sync.Cond // flusher: pending non-empty, closing, or err set
	unblock sync.Cond // pending dropped below high water, or err set
	// pending is the queue. While the flusher writes, its front is the
	// batch in flight, read unlocked as writers append behind it; the
	// flusher drops the batch from the front once written.
	pending []byte
	mergeAt int    // offset in pending of a mergeable DATA header, or -1
	mergeID uint32 // that frame's stream
	peak    int    // highest len(pending)
	closing bool   // drain: write out what is queued, then stop
	err     error
	done    chan struct{} // closed when the flusher exits
}

// newFrameWriter starts c's flusher. The writer must end with fail or
// drain so the flusher exits; done reports that it has.
func newFrameWriter(c net.Conn) *frameWriter {
	w := &frameWriter{c: c, mergeAt: -1, done: make(chan struct{})}
	w.wake.L = &w.mu
	w.unblock.L = &w.mu
	go w.flush()
	return w
}

// write queues one frame. The payload is copied before write returns, so
// callers may reuse it. A stream-0 GOAWAY never parks: it is the one
// drain notice or goodbye a connection sends, and must not hang Shutdown
// or Close behind a peer that has stopped reading.
func (w *frameWriter) write(f mux.Frame) error {
	park := f.Type != mux.TypeGoaway || f.Stream != 0
	w.mu.Lock()
	for w.err == nil && park && len(w.pending) >= frameWriterHighWater {
		w.unblock.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	idle := len(w.pending) == 0
	switch {
	case f.Type != mux.TypeData || f.Flags != 0:
		w.mergeAt = -1
		w.pending = mux.AppendFrame(w.pending, f)
	case w.mergeAt >= 0 && w.mergeID == f.Stream &&
		len(w.pending)-w.mergeAt-mux.HeaderLen+len(f.Payload) <= mux.MaxPayload:
		// The header's first field is the payload length.
		w.pending = append(w.pending, f.Payload...)
		binary.BigEndian.PutUint32(w.pending[w.mergeAt:], uint32(len(w.pending)-w.mergeAt-mux.HeaderLen))
	default:
		w.mergeAt, w.mergeID = len(w.pending), f.Stream
		w.pending = mux.AppendFrame(w.pending, f)
	}
	w.peak = max(w.peak, len(w.pending))
	if idle {
		w.wake.Signal()
	}
	w.mu.Unlock()
	return nil
}

// flush is the flusher goroutine: it writes batches until the writer
// fails, or until a drain finds nothing left to write.
func (w *frameWriter) flush() {
	defer close(w.done)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for w.err == nil && len(w.pending) == 0 && !w.closing {
			w.wake.Wait()
		}
		if w.err == nil && len(w.pending) == 0 {
			w.err = net.ErrClosed // drained: later writes fail, not queue
		}
		if w.err != nil {
			w.unblock.Broadcast()
			return
		}
		n := len(w.pending)
		batch := w.pending[:n:n]
		w.mergeAt = -1
		w.mu.Unlock()
		_, err := w.c.Write(batch)
		w.mu.Lock()
		// Frames queued during the write move to the front; they become
		// the next batch before the lock is released, so mergeAt, reset
		// then, needs no shift.
		w.pending = w.pending[:copy(w.pending, w.pending[n:])]
		if err != nil && w.err == nil {
			w.err = err
		}
		w.unblock.Broadcast()
	}
}

// drain writes out what is queued and stops the flusher, returning once
// it has exited. A peer that stops reading is cut at deadline: the write
// in flight fails then, and whatever is still queued is dropped. A conn
// that takes no deadline is not flushed, since nothing would bound the
// wait; drain returns at once and the caller's close cuts it.
func (w *frameWriter) drain(deadline time.Time) {
	if w.c.SetWriteDeadline(deadline) != nil {
		return
	}
	w.mu.Lock()
	w.closing = true
	w.wake.Signal()
	w.mu.Unlock()
	<-w.done
}

// fail poisons the writer so queued and future writers return err
// instead of blocking, and stops the flusher; a write in flight is cut
// by the caller closing the socket, after which done closes.
func (w *frameWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.wake.Signal()
	w.unblock.Broadcast()
	w.mu.Unlock()
}

// levels reports the bytes queued now, the batch in flight included, and
// the highest level the queue has reached.
func (w *frameWriter) levels() (queued, peak int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending), w.peak
}
