package trace

import "sync/atomic"

// A Tap is a live subscription to a recorder's event stream: every event
// recorded after Subscribe is rendered to one JSONL line (the same schema
// the journal writes, parseable by ParseJSONL) and delivered on a bounded
// channel. This is how /debug/trace?sid=N streams a live session's
// dialogue out of a running daemon without stopping it.
//
// The contract that keeps taps safe on the hot path: delivery NEVER
// blocks the recorder. A slow or stalled reader overflows its channel and
// loses lines — counted in Dropped — rather than stalling the engine the
// way a blocking journal write never could either.
type Tap struct {
	r       *Recorder
	sid     int32 // -1 matches every session
	ch      chan []byte
	dropped atomic.Int64
	closed  bool // guarded by r.mu
}

// defaultTapBuffer bounds a subscriber's in-flight lines; at ~100 bytes a
// line this is tens of kilobytes per watcher.
const defaultTapBuffer = 1024

// Subscribe attaches a live tap for session sid (-1 for all sessions),
// with a delivery buffer of buf lines (defaultTapBuffer when <= 0).
// Subscribing arms ring recording, like attaching a journal: a stream
// being watched is a stream worth recording. Returns nil on a nil
// recorder.
func (r *Recorder) Subscribe(sid int32, buf int) *Tap {
	if r == nil {
		return nil
	}
	if buf <= 0 {
		buf = defaultTapBuffer
	}
	t := &Tap{r: r, sid: sid, ch: make(chan []byte, buf)}
	r.mu.Lock()
	r.taps = append(r.taps, t)
	r.rewatchLocked()
	r.mu.Unlock()
	r.SetRecording(true)
	return t
}

// fanOutLocked renders ev once and delivers a fresh copy to every
// matching tap, dropping (and counting) on full channels. Caller holds
// r.mu, which is also what orders delivery by seq and excludes Close.
func (r *Recorder) fanOutLocked(ev *Event, payload []byte) {
	rendered := false
	for _, t := range r.taps {
		if t.sid >= 0 && t.sid != ev.SID {
			continue
		}
		if !rendered {
			rendered = true
			e := toJSON(ev)
			e.Data = payload
			r.tapScratch = appendEventJSONL(r.tapScratch[:0], &e)
		}
		line := make([]byte, len(r.tapScratch))
		copy(line, r.tapScratch)
		select {
		case t.ch <- line:
		default:
			t.dropped.Add(1)
		}
	}
}

// Events is the delivery channel: one complete JSONL line (with trailing
// newline) per recorded event, closed by Close.
func (t *Tap) Events() <-chan []byte {
	if t == nil {
		return nil
	}
	return t.ch
}

// Dropped counts lines lost to a full delivery buffer.
func (t *Tap) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Close detaches the tap and closes its channel. Idempotent; recording
// stays armed (other taps, the ring, or a journal may still need it).
func (t *Tap) Close() {
	if t == nil {
		return
	}
	r := t.r
	r.mu.Lock()
	if t.closed {
		r.mu.Unlock()
		return
	}
	t.closed = true
	for i, other := range r.taps {
		if other == t {
			r.taps = append(r.taps[:i], r.taps[i+1:]...)
			break
		}
	}
	r.rewatchLocked()
	r.mu.Unlock()
	close(t.ch)
}
