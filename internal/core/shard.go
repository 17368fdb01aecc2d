package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/netx"
	"repro/internal/trace"
)

// This file is the many-session scale layer: a sharded scheduler that
// owns sessions in N event loops instead of one pump goroutine each.
// Every adopted session hashes to exactly one shard, and that shard's
// loop is the only goroutine that ingests its output — the paper's
// single-threaded select loop (§7.2), multiplied. The loop runs the same
// ingest routine as a pump (Session.drain, session.go); only what wakes
// it differs: a doorbell instead of a blocked Read. Expect calls park on
// their session, not on the loop (expect.go): the loop steps them after
// it ingests, and each op's own timer hands it back to its caller at the
// deadline.
//
// Ownership invariants:
//
//  1. A session is owned by exactly one shard for its whole life: adopt
//     picks it (ShardHash over a per-scheduler key) and writes s.shard
//     once, before the session is published, so any goroutine may read
//     the field unlocked.
//  2. A shard owns exactly the sessions it can drain without blocking:
//     those whose transports are event-capable (virtual duplexes,
//     sockets and mux streams, fault-wrapped or not). Every other
//     session keeps its pump.
//  3. Only the owning shard's loop appends to the match buffer and
//     finishes the stream for a sharded session. It drains a transport
//     with non-blocking TryRead/TryReadOwned when the doorbell rings (a
//     socket's bytes reach its inbox through the shard's readiness
//     poller or, without one, the connection's own reader), and then
//     steps the session's parked Expect calls once per drain.
//  4. A parked op is resolved exactly once, under s.mu: by the loop's
//     step after ingest or EOF, or, once its timer has unparked it, by
//     its caller's deadline step. The caller's admission attempt runs in
//     the critical section that parks it, so output or EOF ingested
//     before admission is seen by that attempt and output ingested after
//     finds the op parked (TestShardedEOFBeforeExpectResolves).
//  5. adopt checks stopped and puts the session in its shard's set under
//     stopMu's read lock, before its doorbell can ring, and Stop sets
//     stopped under the write lock before it signals a loop; a draining
//     loop exits only when its set and its dirty list are both empty, or
//     at the drain deadline, when shutdown abandons what the set still
//     holds. So a spawn racing Stop is registered or falls back to a
//     pump, never stranded (TestSchedulerStopRacingSpawn).
//
// A shard has no message queue: its set and dirty list sit under its
// own lock, which no goroutine holds together with a session's s.mu.
// Session.mu stays: Send, Expect admission, Interact, Select, and the
// introspection accessors run on caller goroutines, and the shard takes
// the same lock for the brief append/step critical sections. What
// sharding removes is the per-session blocked reader.

// drainGrace is how long a stopping shard keeps servicing its sessions so
// in-flight EOFs land and pumpDone closes; past it, leftover Expect calls
// are failed with ErrClosed rather than stranded.
const drainGrace = 5 * time.Second

// ShardHash maps a session key to a shard index. The mix is the
// splitmix64 finalizer: stable across Go releases and platforms, so a
// given spawn order lands on the same shards everywhere.
func ShardHash(key uint64, n int) int {
	if n <= 1 {
		return 0
	}
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// SchedulerOptions configures a sharded scheduler.
type SchedulerOptions struct {
	// Shards is the number of event loops; <= 0 means GOMAXPROCS.
	Shards int
	// Rec, when non-nil, supplies one flight recorder per shard; the
	// shard records its ingest stream (spawn/read/EOF) into it.
	Rec func(shard int) *trace.Recorder
}

// Scheduler owns a fixed set of shards. Sessions created with
// Config.Sched pointing here are adopted by one shard each; Stop drains
// and joins every loop.
type Scheduler struct {
	shards  []*shard
	nextKey atomic.Uint64
	stopMu  sync.RWMutex // orders adopt against Stop (invariant 5)
	stopped bool

	// observer, when set before any session is adopted, is called by
	// adopt once per session, as it registers the session with its shard
	// — the test hook behind the single-ownership assertions.
	observer func(s *Session, shard int)
}

// NewScheduler starts opt.Shards event loops.
func NewScheduler(opt SchedulerOptions) *Scheduler {
	n := opt.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	sc := &Scheduler{shards: make([]*shard, n)}
	for i := range sc.shards {
		sh := &shard{
			idx:      i,
			wakeCh:   make(chan struct{}, 1),
			stopCh:   make(chan struct{}),
			done:     make(chan struct{}),
			sessions: make(map[*Session]struct{}),
			buf:      make([]byte, 4096),
		}
		if opt.Rec != nil {
			sh.rec = opt.Rec(i)
		}
		sc.shards[i] = sh
		go sh.loop()
	}
	return sc
}

// PeakQueueDepths returns the high-water backlog each shard has seen: the
// most sessions waiting on its dirty list at once (no messages are
// queued).
func (sc *Scheduler) PeakQueueDepths() []int {
	out := make([]int, len(sc.shards))
	for i, sh := range sc.shards {
		out[i] = int(sh.depthPeak.Load())
	}
	return out
}

// Dropped counts the Expect calls a shard failed with ErrClosed when it
// was forced to exit at the drain deadline. A clean run — sessions closed
// and drained before Stop — is structurally zero, and the soak test
// asserts exactly that.
func (sc *Scheduler) Dropped() uint64 {
	var n uint64
	for _, sh := range sc.shards {
		n += sh.dropped.Load()
	}
	return n
}

// Stop drains and joins every shard loop. Sessions should be closed (and
// ideally WaitPumpDrained) first; a loop still owning live sessions keeps
// servicing them for drainGrace before failing their parked Expects.
func (sc *Scheduler) Stop() {
	if sc == nil {
		return
	}
	sc.stopMu.Lock()
	already := sc.stopped
	sc.stopped = true
	sc.stopMu.Unlock()
	if already {
		return
	}
	for _, sh := range sc.shards {
		close(sh.stopCh)
	}
	for _, sh := range sc.shards {
		<-sh.done
	}
	// Loops are gone; tear down the readiness pollers they accreted. Any
	// connection still registered is finished with a clean hangup, the
	// same verdict a killed reader goroutine would yield.
	for _, sh := range sc.shards {
		sh.stopPoller()
	}
}

// adopt hashes s onto a shard and hands ownership of its read side to
// that shard's loop. Returns nil (caller falls back to a pump goroutine)
// if the transport cannot be drained without blocking (invariant 2) or
// the scheduler is stopped. Under stopMu's read lock it checks stopped
// and puts s in the shard's set, and only then installs the doorbell
// and rings (invariant 5), so no sweep meets an unregistered session.
func (sc *Scheduler) adopt(s *Session) *shard {
	if !s.p.EventCapable() {
		return nil
	}
	sc.stopMu.RLock()
	defer sc.stopMu.RUnlock()
	if sc.stopped {
		return nil
	}
	key := sc.nextKey.Add(1)
	sh := sc.shards[ShardHash(key, len(sc.shards))]
	s.shard = sh
	s.shardKey = key
	s.ownedMode = s.p.OwnedCapable()
	sh.mu.Lock()
	sh.sessions[s] = struct{}{}
	sh.mu.Unlock()
	if ob := sc.observer; ob != nil {
		ob(s, sh.idx)
	}
	if sh.rec.On() {
		sh.rec.Record(trace.KindSpawn, s.sid, int64(sh.idx), 0, false, s.name, "shard")
	}
	s.p.SetReadNotify(func() { sh.markDirty(s) })
	// A deferred network connection has no ingest producer yet: claim it
	// for this shard's readiness loop, or start its fallback reader. The
	// doorbell is already installed, so no arrival can slip by.
	sh.attachNetIngest(s)
	// The doorbell went in after the child started: ring once
	// unconditionally so output — or an exit — that predates it is swept
	// at once instead of waited on forever.
	sh.markDirty(s)
	return sh
}

type shard struct {
	idx    int
	wakeCh chan struct{}
	stopCh chan struct{}
	done   chan struct{}
	rec    *trace.Recorder

	// mu guards the set of sessions the shard owns and the dirty list of
	// those whose doorbell rang. No goroutine holds it together with a
	// session's s.mu.
	mu       sync.Mutex
	sessions map[*Session]struct{}
	dirty    []*Session

	// buf is the loop's read buffer; no other goroutine touches it.
	buf []byte

	depthPeak atomic.Int64
	dropped   atomic.Uint64

	// wake distributes how long each loop wakeup's servicing took — one
	// observation per dirty sweep, so it prices the batch, not the
	// session. Lock-free Observe on the loop, lock-free Merge by the
	// telemetry plane; /debug/shards reports its percentiles.
	wake metrics.Histogram

	// Readiness poller, created lazily at the first network adoption and
	// shared by every socket session on this shard: O(shards) ingest
	// goroutines instead of O(connections). pollTried latches a failed
	// creation (non-linux) so each adoption doesn't retry the syscall.
	pollMu    sync.Mutex
	poll      *netx.Poller
	pollTried bool
}

// netPoller returns the shard's readiness poller, creating it on first
// use; nil when the platform has none (callers fall back to a reader
// goroutine per connection).
func (sh *shard) netPoller() *netx.Poller {
	sh.pollMu.Lock()
	defer sh.pollMu.Unlock()
	if !sh.pollTried {
		sh.pollTried = true
		if p, err := netx.NewPoller(); err == nil {
			sh.poll = p
		}
	}
	return sh.poll
}

func (sh *shard) stopPoller() {
	sh.pollMu.Lock()
	p := sh.poll
	sh.poll = nil
	sh.pollTried = true
	sh.pollMu.Unlock()
	if p != nil {
		p.Close()
	}
}

// attachNetIngest gives a deferred socket transport its ingest producer:
// the shard's readiness loop when the platform and options allow, the
// connection's own fallback reader goroutine otherwise. Non-socket
// transports (virtual duplexes) need neither and pass through.
func (sh *shard) attachNetIngest(s *Session) {
	nc, ok := s.p.Transport().(*netx.Conn)
	if !ok {
		return
	}
	if p := sh.netPoller(); p != nil {
		if err := p.Register(nc); err == nil {
			return
		}
	}
	nc.StartIngest()
}

// loop is the shard's event loop: one goroutine multiplexing the ingest
// of every session hashed here.
func (sh *shard) loop() {
	defer close(sh.done)
	var drainC <-chan time.Time
	for {
		if drainC != nil && sh.idle() {
			sh.shutdown()
			return
		}
		select {
		case <-sh.wakeCh:
			wake := time.Now()
			sh.drainDirty()
			sh.wake.Observe(time.Since(wake))
		case <-drainC:
			sh.shutdown()
			return
		case <-sh.stopCh:
			t := time.NewTimer(drainGrace)
			defer t.Stop()
			drainC = t.C
			sh.stopCh = nil
		}
	}
}

// idle reports whether the shard owns no session and has none to sweep.
func (sh *shard) idle() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.sessions) == 0 && len(sh.dirty) == 0
}

// shutdown is the forced exit at the drain deadline: every session the
// shard still owns is abandoned — its parked Expect calls fail with
// ErrClosed and count in dropped — and released, so its WaitPumpDrained
// returns. The set is emptied under the lock, so a scrape after this
// sees nothing.
func (sh *shard) shutdown() {
	sh.mu.Lock()
	owned := sh.sessions
	sh.sessions = make(map[*Session]struct{})
	sh.dirty = nil
	sh.mu.Unlock()
	for s := range owned {
		sh.dropped.Add(uint64(s.abandon()))
		s.closePumpDone()
	}
}

// drop removes a finished session from the shard's set.
func (sh *shard) drop(s *Session) {
	sh.mu.Lock()
	delete(sh.sessions, s)
	sh.mu.Unlock()
}

// owned copies the shard's session set.
func (sh *shard) owned() []*Session {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]*Session, 0, len(sh.sessions))
	for s := range sh.sessions {
		out = append(out, s)
	}
	return out
}

// markDirty flags a session whose transport has readable bytes (or EOF)
// and rings the shard. Safe from any goroutine; the swap coalesces
// repeated rings into one sweep.
func (sh *shard) markDirty(s *Session) {
	if s.inDirty.Swap(true) {
		return
	}
	sh.mu.Lock()
	sh.dirty = append(sh.dirty, s)
	d := len(sh.dirty)
	sh.mu.Unlock()
	sh.noteDepth(d)
	select {
	case sh.wakeCh <- struct{}{}:
	default:
	}
}

func (sh *shard) noteDepth(d int) {
	for {
		cur := sh.depthPeak.Load()
		if int64(d) <= cur || sh.depthPeak.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// drainDirty sweeps every rung session once: each is drained and then
// stepped, so one poll round that readied N sockets of the same shard
// costs one match attempt per session, however many segments each
// delivered — the batch rule a pump keeps too.
func (sh *shard) drainDirty() {
	sh.mu.Lock()
	ds := sh.dirty
	sh.dirty = nil
	sh.mu.Unlock()
	for _, s := range ds {
		// Clear before sweeping: a ring during the sweep re-queues the
		// session instead of being swallowed.
		s.inDirty.Store(false)
		got, more, _ := s.drain(sh.buf, 0, nil, maxSweepReads, sh.rec)
		if got {
			s.stepParked()
		}
		if more {
			sh.markDirty(s)
		}
	}
}
