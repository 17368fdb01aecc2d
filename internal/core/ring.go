package core

// matchBuffer is the session's bounded match buffer, stored as a gap
// buffer: live bytes occupy data[off:] of a backing array capped at about
// twice the match_max bound. The original implementation re-sliced and
// copied the whole buffer on every trim (`append(buf[:0:0], buf[over:]...)`),
// making a sustained torrent of output O(n·match_max); here forgetting
// bytes from the front is a single offset bump, and the backing array is
// compacted only when appends run out of room — each compaction moves at
// most max bytes and buys at least max bytes of headroom, so the total
// copying over an N-byte stream is O(N).
//
// The live region stays contiguous, which is what lets the match loop run
// compiled patterns directly over bytes() without assembling a string.
type matchBuffer struct {
	max  int    // match_max bound on live bytes
	data []byte // backing array; live bytes are data[off:]
	off  int    // start of the live region
	// free, when non-nil, is the lease on the current backing array (a
	// pooled netx segment adopted by appendOwned). Release is called
	// exactly once, when the buffer stops using that backing — reset,
	// realloc, or replacement by the next adoption — after which data must
	// not alias the old array. Held as an interface rather than a bound
	// method so adoption stays allocation-free.
	free owned
}

// owned is the lease half of proc.Owned, restated locally so the gap
// buffer stays free of transport imports.
type owned interface{ Release() }

// releaseBacking returns adopted backing to its owner, if any.
func (b *matchBuffer) releaseBacking() {
	if b.free != nil {
		b.free.Release()
		b.free = nil
	}
}

// reset drops all live bytes and rewinds the backing array. Owned backing
// is returned to its pool and the slice dropped — the next append starts
// from scratch rather than writing into memory another holder may now own.
func (b *matchBuffer) reset() {
	if b.free != nil {
		b.releaseBacking()
		b.data, b.off = nil, 0
		return
	}
	b.data = b.data[:0]
	b.off = 0
}

// length returns the number of live bytes.
func (b *matchBuffer) length() int { return len(b.data) - b.off }

// bytes returns the live region as a contiguous view into the backing
// array. The view is invalidated by the next append, consume, or setMax;
// callers needing the data after releasing the session lock must copy.
func (b *matchBuffer) bytes() []byte { return b.data[b.off:] }

// appendData adds p to the buffer, forgetting the oldest bytes as needed to
// keep at most max live, and reports how many bytes were forgotten.
// Trimming happens before the copy so bytes that cannot survive the append
// are never moved into the backing array.
func (b *matchBuffer) appendData(p []byte) (forgot int) {
	if len(p) >= b.max {
		// The chunk alone overflows the bound: everything currently live is
		// forgotten, along with the front of the chunk itself.
		forgot = b.length() + len(p) - b.max
		p = p[len(p)-b.max:]
		b.reset()
	} else if over := b.length() + len(p) - b.max; over > 0 {
		// Forget the earliest bytes, per §3.1 — an offset bump, not a copy.
		b.off += over
		forgot = over
	}
	need := b.length() + len(p)
	if len(b.data)+len(p) > cap(b.data) {
		if need > cap(b.data) {
			// Double toward the 2*max ceiling; sessions that never buffer
			// much never commit the full backing array.
			newCap := 2 * cap(b.data)
			if newCap < 64 {
				newCap = 64
			}
			if newCap > 2*b.max {
				newCap = 2 * b.max
			}
			if newCap < need {
				newCap = need
			}
			nd := make([]byte, b.length(), newCap)
			copy(nd, b.bytes())
			b.releaseBacking()
			b.data, b.off = nd, 0
		} else {
			// Room exists at the front: compact live bytes down. With the
			// backing at 2*max and live bytes trimmed to at most max, each
			// compaction frees at least max bytes of append headroom.
			n := copy(b.data, b.bytes())
			b.data, b.off = b.data[:n], 0
		}
	}
	b.data = append(b.data, p...)
	return forgot
}

// consume removes n bytes from the front (a successful match).
func (b *matchBuffer) consume(n int) {
	b.off += n
	if b.off >= len(b.data) {
		b.reset()
	}
}

// take returns a copy of the live bytes and empties the buffer. It copies
// because callers (the interact drain) write the result after releasing
// the session lock, while the pump may be appending into the same backing.
func (b *matchBuffer) take() []byte {
	if b.length() == 0 {
		b.reset()
		return nil
	}
	out := make([]byte, b.length())
	copy(out, b.bytes())
	b.reset()
	return out
}

// setMax changes the bound, forgetting from the front if the live region
// now overflows, and reports how many bytes were forgotten. If the backing
// array is far larger than the new bound it is reallocated so a shrink
// actually releases memory.
func (b *matchBuffer) setMax(n int) (forgot int) {
	b.max = n
	if over := b.length() - n; over > 0 {
		b.off += over
		forgot = over
	}
	if cap(b.data) > 2*n && cap(b.data) > 4096 {
		nd := make([]byte, b.length())
		copy(nd, b.bytes())
		b.releaseBacking()
		b.data, b.off = nd, 0
	}
	return forgot
}

// appendOwned adds p — the payload of a leased buffer whose lease is o —
// preferring to adopt the buffer as the gap buffer's backing
// outright instead of copying. Adoption happens when the window is empty,
// which is the steady state of a pattern-matching dialogue: each match
// consumes the window, so the next chunk lands in an empty buffer and its
// segment becomes the backing with zero bytes moved. It also happens when
// the chunk alone fills match_max, since every live byte is forgotten
// anyway. Otherwise (a partial match pending) it falls back to the
// copying appendData and reports adopted=false so the caller can release
// the lease itself.
//
// On adoption the buffer takes over the lease: Release fires when the
// window forgets the backing (reset, consume-to-empty, realloc growth,
// shrink, or the next adoption). Trimming to max stays an offset bump
// even on adopted backing.
func (b *matchBuffer) appendOwned(p []byte, o owned) (forgot int, adopted bool) {
	if o == nil || (b.length() > 0 && len(p) < b.max) {
		return b.appendData(p), false
	}
	forgot = b.length()
	b.releaseBacking()
	b.data, b.off, b.free = p, 0, o
	if over := len(p) - b.max; over > 0 {
		b.off = over
		forgot += over
	}
	return forgot, true
}
