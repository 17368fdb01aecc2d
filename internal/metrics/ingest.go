package metrics

import "sync/atomic"

// IngestStats is the wire-ingest scoreboard behind E19's copied-byte and
// ingest-alloc guards: it counts, with one atomic add per event, what the
// socket→engine data path did to every byte. Pooled segments whose
// ownership transfers whole (netx → inbox → matchBuffer backing) keep
// both counters near zero in the steady state. The load workbench
// threads one IngestStats through netx.Options and core.Config and
// reports the per-dialogue quotients.
//
// A nil *IngestStats is a valid no-op sink, like Profiler and Counters.
type IngestStats struct {
	// bytesCopied counts payload bytes physically copied between buffers
	// on the ingest path (TryRead copy-outs, gap-buffer appends, the
	// gateway client's demux copy). The steady-state socket path adds
	// nothing here.
	bytesCopied atomic.Int64
	// bytesHandedOff counts payload bytes whose buffer changed owner
	// without being copied: a leased segment queued whole, or adopted as
	// gap-buffer backing.
	bytesHandedOff atomic.Int64
	// ingestAllocs counts heap allocations the ingest path performed for
	// payload bytes: gap-buffer reallocation and segment-pool misses.
	// Pool hits add nothing.
	ingestAllocs atomic.Int64
	// segLeases / segReuses count pool traffic: every Get is a lease, and
	// a lease satisfied from the free list (no allocation) is a reuse.
	segLeases atomic.Int64
	segReuses atomic.Int64
}

// AddCopied records n payload bytes copied between ingest buffers.
func (s *IngestStats) AddCopied(n int) {
	if s != nil && n > 0 {
		s.bytesCopied.Add(int64(n))
	}
}

// AddHandedOff records n payload bytes transferred by ownership move.
func (s *IngestStats) AddHandedOff(n int) {
	if s != nil && n > 0 {
		s.bytesHandedOff.Add(int64(n))
	}
}

// AddAlloc records one payload-buffer allocation on the ingest path.
func (s *IngestStats) AddAlloc() {
	if s != nil {
		s.ingestAllocs.Add(1)
	}
}

// NoteLease records a segment lease; reused says whether the free list
// satisfied it (no allocation).
func (s *IngestStats) NoteLease(reused bool) {
	if s == nil {
		return
	}
	s.segLeases.Add(1)
	if reused {
		s.segReuses.Add(1)
	}
}

// BytesCopied returns the copied-byte total.
func (s *IngestStats) BytesCopied() int64 {
	if s == nil {
		return 0
	}
	return s.bytesCopied.Load()
}

// BytesHandedOff returns the ownership-transferred byte total.
func (s *IngestStats) BytesHandedOff() int64 {
	if s == nil {
		return 0
	}
	return s.bytesHandedOff.Load()
}

// IngestAllocs returns the ingest-path allocation count.
func (s *IngestStats) IngestAllocs() int64 {
	if s == nil {
		return 0
	}
	return s.ingestAllocs.Load()
}

// SegmentLeases returns the pool lease count.
func (s *IngestStats) SegmentLeases() int64 {
	if s == nil {
		return 0
	}
	return s.segLeases.Load()
}

// SegmentReuses returns how many leases were served from the free list.
func (s *IngestStats) SegmentReuses() int64 {
	if s == nil {
		return 0
	}
	return s.segReuses.Load()
}
