package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/netx"
	"repro/internal/proc"
	"repro/internal/trace"
)

// This file is the many-session scale layer: a sharded scheduler that
// owns sessions in N event loops instead of one pump goroutine each.
// Every adopted session hashes to exactly one shard, and that shard's
// loop is the only goroutine that ingests its output — the paper's
// single-threaded select loop (§7.2), multiplied. Expect calls park on
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
//     those with event-capable transports (unwrapped virtual duplexes,
//     sockets and mux streams). Every other session keeps its pump.
//  3. Only the owning shard's loop appends to the match buffer and
//     applies EOF for a sharded session, and it closes pumpDone. It
//     drains a transport with non-blocking TryRead/TryReadOwned when
//     the doorbell rings (a socket's bytes reach its inbox through the
//     shard's readiness poller or, without one, the connection's own
//     reader), and then steps the session's parked Expect calls once
//     per sweep.
//  4. A parked op is resolved exactly once, under s.mu: by the loop's
//     step after ingest or EOF, or, once its timer has unparked it, by
//     its caller's deadline step. The caller's admission attempt runs in
//     the critical section that parks it, so output or EOF ingested
//     before admission is seen by that attempt and output ingested after
//     finds the op parked (TestShardedEOFBeforeExpectResolves).
//  5. adopt checks stopped and queues msgRegister under stopMu's read
//     lock, and Stop sets stopped under the write lock before it signals
//     a loop; a draining loop exits only with no sessions and an empty
//     queue, or at the drain deadline, when shutdown abandons what is
//     left. So a spawn racing Stop is registered or falls back to a
//     pump, never stranded (TestSchedulerStopRacingSpawn).
//
// Session.mu stays: Send, Expect admission, Interact, Select, and the
// introspection accessors run on caller goroutines, and the shard takes
// the same lock for the brief append/step critical sections. What
// sharding removes is the per-session blocked reader.

// defaultQueueCap bounds each shard's message queue; an adopt or
// inspect request posting into a full queue blocks until the loop catches
// up.
const defaultQueueCap = 1024

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
	// shard records its ingest stream (register/read/EOF) into it.
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

	// observer, when set before any session is adopted, is called from
	// the owning shard's loop at registration — the test hook behind the
	// single-ownership assertions.
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
			sched:    sc,
			cmds:     make(chan shardMsg, defaultQueueCap),
			wakeCh:   make(chan struct{}, 1),
			stopCh:   make(chan struct{}),
			done:     make(chan struct{}),
			sessions: make(map[*Session]struct{}),
			scratch:  make([]byte, 4096),
		}
		if opt.Rec != nil {
			sh.rec = opt.Rec(i)
		}
		sc.shards[i] = sh
		go sh.loop()
	}
	return sc
}

// PeakQueueDepths returns the high-water backlog each shard has seen.
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
// the scheduler is stopped. The read lock spans the stopped check and the
// registration post (invariant 5); the post may wait on a full queue but
// not forever, because the loop never takes stopMu and cannot begin its
// drain before Stop holds it.
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
	s.p.SetReadNotify(func() { sh.markDirty(s) })
	// A deferred network connection has no ingest producer yet: claim it
	// for this shard's readiness loop, or start its fallback reader. The
	// doorbell is already installed, so no arrival can slip by.
	sh.attachNetIngest(s)
	sh.post(shardMsg{kind: msgRegister, s: s})
	// The doorbell went in after the child started: ring once
	// unconditionally so output — or an exit — that predates it is swept
	// at registration instead of waited on forever.
	sh.markDirty(s)
	return sh
}

type shardMsgKind uint8

const (
	msgRegister shardMsgKind = iota
	// msgInspect asks a loop for a telemetry snapshot of everything it
	// owns, taken on the loop itself, so the session set is the one the
	// loop acts on (no session is half-registered in the reply).
	msgInspect
)

type shardMsg struct {
	kind shardMsgKind
	s    *Session
	// insp is msgInspect's reply channel: buffered, written at most once.
	insp chan ShardSnapshot
}

type shard struct {
	idx    int
	sched  *Scheduler
	cmds   chan shardMsg
	wakeCh chan struct{}
	stopCh chan struct{}
	done   chan struct{}
	rec    *trace.Recorder

	dirtyMu sync.Mutex
	dirty   []*Session

	// Loop-owned state; no other goroutine touches it.
	sessions map[*Session]struct{}
	scratch  []byte

	depthPeak atomic.Int64
	dropped   atomic.Uint64

	// wake distributes how long each loop wakeup's servicing took — one
	// observation per cmds batch or dirty sweep, so it prices the batch,
	// not the message. Lock-free Observe on the loop, lock-free Merge by
	// the telemetry plane; /debug/shards reports its percentiles.
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
		if drainC != nil && len(sh.sessions) == 0 && len(sh.cmds) == 0 {
			sh.shutdown()
			return
		}
		select {
		case m := <-sh.cmds:
			wake := time.Now()
			sh.handle(m)
			// Batch whatever else is already queued.
			for more := true; more; {
				select {
				case m := <-sh.cmds:
					sh.handle(m)
				default:
					more = false
				}
			}
			sh.wake.Observe(time.Since(wake))
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

// shutdown is the forced exit at the drain deadline: every session the
// loop still owns, or never got to register, is abandoned — its parked
// Expect calls fail with ErrClosed and count in dropped — and released,
// so its WaitPumpDrained returns.
func (sh *shard) shutdown() {
	release := func(s *Session) {
		sh.dropped.Add(uint64(s.abandon()))
		s.closePumpDone()
	}
	for {
		select {
		case m := <-sh.cmds:
			switch m.kind {
			case msgRegister:
				release(m.s)
			case msgInspect:
				// The loop is gone; reply with an empty snapshot so a
				// scraper that raced the drain never hangs.
				m.insp <- ShardSnapshot{Shard: sh.idx}
			}
		default:
			for s := range sh.sessions {
				release(s)
				delete(sh.sessions, s)
			}
			return
		}
	}
}

func (sh *shard) handle(m shardMsg) {
	switch m.kind {
	case msgRegister:
		if m.s.shardEOF.Load() {
			return
		}
		sh.sessions[m.s] = struct{}{}
		if ob := sh.sched.observer; ob != nil {
			ob(m.s, sh.idx)
		}
		if sh.rec.On() {
			sh.rec.Record(trace.KindSpawn, m.s.sid, int64(sh.idx), 0, false, m.s.name, "shard")
		}
		// The child may have spoken — or hung up — before we existed.
		sh.ingest(m.s)
	case msgInspect:
		m.insp <- sh.inspect()
	}
}

// post delivers a message to the loop, blocking when the queue is full.
func (sh *shard) post(m shardMsg) {
	sh.cmds <- m
	sh.noteDepth(len(sh.cmds))
}

func (sh *shard) noteDepth(d int) {
	for {
		cur := sh.depthPeak.Load()
		if int64(d) <= cur || sh.depthPeak.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// markDirty flags a session whose transport has readable bytes (or EOF)
// and rings the shard. Safe from any goroutine; the swap coalesces
// repeated rings into one sweep.
func (sh *shard) markDirty(s *Session) {
	if s.inDirty.Swap(true) {
		return
	}
	sh.dirtyMu.Lock()
	sh.dirty = append(sh.dirty, s)
	d := len(sh.dirty)
	sh.dirtyMu.Unlock()
	sh.noteDepth(d + len(sh.cmds))
	select {
	case sh.wakeCh <- struct{}{}:
	default:
	}
}

// drainDirty sweeps every rung session once: each is drained and then
// stepped, so one poll round that readied N sockets of the same shard
// costs one match attempt per session, however many segments each
// delivered — the batch granularity contract.
func (sh *shard) drainDirty() {
	sh.dirtyMu.Lock()
	ds := sh.dirty
	sh.dirty = nil
	sh.dirtyMu.Unlock()
	for _, s := range ds {
		// Clear before sweeping: a ring during the sweep re-queues the
		// session instead of being swallowed.
		s.inDirty.Store(false)
		sh.ingest(s)
	}
}

// maxSweepReads bounds how long one session may hold the loop; a firehose
// re-queues itself so its shard-mates still get stepped.
const maxSweepReads = 16

// ingest drains an event-capable transport from the loop, then steps the
// session's parked Expect calls once against everything the sweep
// appended. At EOF, applyEOF does the stepping.
func (sh *shard) ingest(s *Session) {
	if s.shardEOF.Load() {
		return
	}
	got, err := sh.drain(s)
	if err != nil {
		sh.finishSession(s, err)
		return
	}
	if got {
		s.stepParked()
	}
}

// drain moves up to maxSweepReads reads into the match buffer — segment
// handoff for ownership-transfer transports, a copying TryRead otherwise —
// and reports whether it appended anything and the error that ended the
// stream, if any.
//
// With ownership transfer each queued segment moves from the connection's
// inbox into the session whole — no scratch buffer, no copy in the steady
// state — and the lease travels with it (applyOwned either adopts it as
// match-buffer backing or, when a partial match pins the window, copies
// and releases).
func (sh *shard) drain(s *Session) (got bool, err error) {
	for reads := 0; reads < maxSweepReads; reads++ {
		var ok bool
		stop := s.prof.Start(metrics.PhaseIO)
		if s.ownedMode {
			var o proc.Owned
			o, ok, err = s.p.TryReadOwned()
			stop()
			if o != nil {
				if sh.rec.On() {
					// Record before the handoff: the recorder copies what
					// it keeps, and the lease may end inside applyOwned.
					sh.rec.RecordBytes(trace.KindRead, s.sid, int64(len(o.Bytes())), 0, false, o.Bytes(), nil)
				}
				s.applyOwned(o)
				got = true
			}
		} else {
			var n int
			n, ok, err = s.p.TryRead(sh.scratch)
			stop()
			if n > 0 {
				if s.ingest != nil {
					s.ingest.AddCopied(n)
				}
				s.applyChunk(sh.scratch[:n])
				if sh.rec.On() {
					sh.rec.RecordBytes(trace.KindRead, s.sid, int64(n), 0, false, sh.scratch[:n], nil)
				}
				got = true
			}
		}
		if !ok {
			return got, nil
		}
		if err != nil {
			if isTransient(err) {
				continue
			}
			return got, err
		}
	}
	sh.markDirty(s)
	return got, nil
}

// finishSession applies EOF exactly once, which resolves every parked
// Expect call, and releases the session from the shard.
func (sh *shard) finishSession(s *Session, err error) {
	if s.shardEOF.Swap(true) {
		return
	}
	s.applyEOF(err)
	if sh.rec.On() {
		sh.rec.Record(trace.KindEOF, s.sid, 0, 0, false, s.name, "")
	}
	delete(sh.sessions, s)
	s.closePumpDone()
}
