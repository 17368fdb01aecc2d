package core

import (
	"container/heap"
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
// Every session hashes to exactly one shard, and that shard's loop is the
// only goroutine that ingests its output, steps its pending Expect calls,
// and fires its deadlines — the paper's single-threaded select loop
// (§7.2), multiplied.
//
// Ownership invariants:
//
//  1. A session is owned by exactly one shard for its whole life: adopt
//     picks it (ShardHash over a per-scheduler key) and writes s.shard
//     once, before the session is published, so any goroutine may read
//     the field unlocked.
//  2. Only the owning shard's loop appends to the match buffer, applies
//     EOF, and steps expect ops for a sharded session. It also closes
//     pumpDone, unless it has already exited; then a feeder's final EOF
//     does (postFeeder).
//  3. Event-capable transports (unwrapped virtual duplexes and sockets)
//     are drained with non-blocking TryRead/TryReadOwned from the loop
//     itself when their doorbell rings; a socket's bytes reach its inbox
//     through the shard's readiness poller (or, without one, the
//     connection's own reader). Blocking transports (pty, pipe,
//     fault-wrapped) keep one dedicated reader feeding the shard through
//     its bounded queue.
//  4. Expect calls are admitted by the loop with an immediate synchronous
//     match attempt, so output or EOF ingested before admission is
//     observed at admission — there is no window in which a child that
//     already exited can strand a waiter (TestShardedEOFBeforeExpectResolves).
//  5. adopt checks stopped and queues msgRegister under stopMu's read
//     lock, and Stop sets stopped under the write lock before it signals
//     a loop; a draining loop exits only with an empty queue or at the
//     drain deadline, when shutdown releases what is left. So a spawn
//     racing Stop is registered or falls back to a pump, never stranded
//     (TestSchedulerStopRacingSpawn).
//
// Session.mu stays: Send, Interact, Select, and the introspection
// accessors still run on caller goroutines, and the shard takes the same
// lock for the brief append/step critical sections. What sharding removes
// is the per-session blocked reader and the per-call cond-wait.

// defaultQueueCap bounds each shard's message queue; feeders posting into
// a full queue block, which is the backpressure that keeps a torrent of
// child output from outrunning the loop.
const defaultQueueCap = 1024

// drainGrace is how long a stopping shard keeps servicing its queue so
// in-flight EOFs land and pumpDone closes; past it, leftover waiters are
// failed with ErrClosed rather than stranded.
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
			ops:      make(map[*Session][]*expectOp),
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

// Dropped counts events a shard lost: expect waiters failed at the drain
// deadline and chunks discarded after a forced exit. A clean run —
// sessions closed and drained before Stop — is structurally zero, and the
// soak test asserts exactly that.
func (sc *Scheduler) Dropped() uint64 {
	var n uint64
	for _, sh := range sc.shards {
		n += sh.dropped.Load()
	}
	return n
}

// Stop drains and joins every shard loop. Sessions should be closed (and
// ideally WaitPumpDrained) first; a loop still owning live sessions keeps
// servicing them for drainGrace before failing their waiters.
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
// if the scheduler is stopped. The read lock spans the stopped check and
// the registration post (invariant 5); the post may wait on a full queue
// but not forever, because the loop never takes stopMu and cannot begin
// its drain before Stop holds it.
func (sc *Scheduler) adopt(s *Session) *shard {
	sc.stopMu.RLock()
	defer sc.stopMu.RUnlock()
	if sc.stopped {
		return nil
	}
	key := sc.nextKey.Add(1)
	sh := sc.shards[ShardHash(key, len(sc.shards))]
	s.shard = sh
	s.shardKey = key
	if s.p.EventCapable() {
		s.notifyMode = true
		s.ownedMode = s.p.OwnedCapable()
		s.p.SetReadNotify(func() { sh.markDirty(s) })
		// A deferred network connection has no ingest producer yet: claim
		// it for this shard's readiness loop, or start its fallback reader.
		// The doorbell is already installed, so no arrival can slip by.
		sh.attachNetIngest(s)
	}
	sh.post(shardMsg{kind: msgRegister, s: s})
	if s.notifyMode {
		// The doorbell went in after the child started: ring once
		// unconditionally so output — or an exit — that predates it is
		// swept at registration instead of waited on forever.
		sh.markDirty(s)
	} else {
		go s.feed(sh)
	}
	return sh
}

type shardMsgKind uint8

const (
	msgRegister shardMsgKind = iota
	msgChunk
	msgEOF
	msgExpect
	// msgCheckpoint asks the owning loop for a session snapshot that
	// includes its parked expect ops.
	msgCheckpoint
	// msgInspect asks a loop for a telemetry snapshot of everything it
	// owns — sessions, parked ops, earliest deadlines — taken on the loop
	// itself, so it is consistent with the loop's own view (no session is
	// half-registered or mid-step in the reply).
	msgInspect
)

type shardMsg struct {
	kind shardMsgKind
	s    *Session
	data []byte
	err  error
	op   *expectOp
	// Reply channels of msgCheckpoint and msgInspect; each is buffered
	// and written at most once.
	cpc  chan *SessionCheckpoint
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
	sessions   map[*Session]struct{}
	ops        map[*Session][]*expectOp
	timers     opHeap
	scratch    []byte
	touched    []*Session // sessions with chunks applied this batch, step pending
	draining   bool
	drainUntil time.Time

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

// loop is the shard's event loop: one goroutine multiplexing the ingest,
// timers, and match attempts of every session hashed here.
func (sh *shard) loop() {
	defer close(sh.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		// Fire due deadlines and find the next one.
		now := time.Now()
		for sh.timers.Len() > 0 {
			next := sh.timers[0]
			if next.resolved {
				heap.Pop(&sh.timers)
				continue
			}
			if next.deadline.After(now) {
				break
			}
			heap.Pop(&sh.timers)
			next.timed = false
			if next.s.rec.On() {
				next.s.rec.Record(trace.KindTimerFire, next.s.sid, 0, 0, false, "", "")
			}
			sh.stepOp(next, now)
			now = time.Now()
		}
		var timerC <-chan time.Time
		if sh.timers.Len() > 0 {
			timer.Reset(sh.timers[0].deadline.Sub(now))
			timerC = timer.C
		} else if sh.draining {
			timer.Reset(time.Until(sh.drainUntil))
			timerC = timer.C
		}

		if sh.draining {
			quiesced := len(sh.sessions) == 0 && len(sh.cmds) == 0 && len(sh.ops) == 0
			if quiesced || now.After(sh.drainUntil) {
				sh.disarm(timer, timerC)
				sh.shutdown()
				return
			}
		}

		select {
		case m := <-sh.cmds:
			sh.disarm(timer, timerC)
			wake := time.Now()
			sh.handle(m)
			// Batch whatever else is already queued before re-arming.
			for more := true; more; {
				select {
				case m := <-sh.cmds:
					sh.handle(m)
				default:
					more = false
				}
			}
			// Step every session the batch touched exactly once, so a
			// feeder delivering one logical write as many small reads
			// produces one match attempt against the accumulated buffer —
			// the same scan granularity the pump's coalesced wakeup gives
			// the classic path. Stepping per chunk instead would let an
			// early `*foo*` glob consume a prefix the pump path never
			// observes in isolation.
			sh.stepTouched()
			sh.wake.Observe(time.Since(wake))
		case <-sh.wakeCh:
			sh.disarm(timer, timerC)
			wake := time.Now()
			sh.drainDirty()
			sh.wake.Observe(time.Since(wake))
		case <-timerC:
		case <-sh.stopCh:
			sh.disarm(timer, timerC)
			sh.draining = true
			sh.drainUntil = time.Now().Add(drainGrace)
			sh.stopCh = nil
		}
	}
}

// disarm stops the loop timer and clears a pending tick.
func (sh *shard) disarm(t *time.Timer, armed <-chan time.Time) {
	if armed == nil {
		return
	}
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// shutdown is the forced exit at the drain deadline: whatever is still
// queued or parked is failed rather than stranded, and every loss is
// counted in dropped.
func (sh *shard) shutdown() {
	for {
		select {
		case m := <-sh.cmds:
			switch m.kind {
			case msgRegister, msgEOF:
				// A session the loop never got to is released, not
				// stranded: its WaitPumpDrained returns.
				m.s.closePumpDone()
			case msgChunk:
				sh.dropped.Add(1)
			case msgExpect:
				sh.dropped.Add(1)
				m.op.resolved = true
				m.op.ch <- expectOutcome{nil, ErrClosed}
			case msgCheckpoint:
				// No reply; the requester's select sees sh.done close.
			case msgInspect:
				// The loop is gone; reply with an empty snapshot so a
				// scraper that raced the drain never hangs.
				m.insp <- ShardSnapshot{Shard: sh.idx}
			}
		default:
			for s, ops := range sh.ops {
				for _, op := range ops {
					if !op.resolved {
						sh.dropped.Add(1)
						op.resolved = true
						op.ch <- expectOutcome{nil, ErrClosed}
					}
				}
				delete(sh.ops, s)
			}
			for s := range sh.sessions {
				s.closePumpDone()
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
		if m.s.notifyMode {
			// The child may have spoken — or hung up — before we existed.
			sh.ingest(m.s)
		}
	case msgChunk:
		m.s.applyChunk(m.data)
		if sh.rec.On() {
			sh.rec.RecordBytes(trace.KindRead, m.s.sid, int64(len(m.data)), 0, false, m.data, nil)
		}
		// Deferred: the loop steps touched sessions after the whole batch
		// is applied (see the cmds case in loop).
		sh.touch(m.s)
	case msgEOF:
		sh.finishSession(m.s, m.err)
	case msgExpect:
		sh.admitOp(m.op)
	case msgCheckpoint:
		cp := m.s.Checkpoint()
		now := time.Now()
		for _, op := range sh.ops[m.s] {
			if !op.resolved {
				cp.Pending = append(cp.Pending, op.checkpoint(now))
			}
		}
		m.cpc <- cp
	case msgInspect:
		m.insp <- sh.inspect(time.Now())
	}
}

// post delivers a message to the loop, blocking when the queue is full —
// the bounded-queue backpressure of invariant 3.
func (sh *shard) post(m shardMsg) {
	sh.cmds <- m
	sh.noteDepth(len(sh.cmds))
}

// postFeeder is post for reader goroutines, which must not deadlock
// against a loop that already exited; it reports whether the loop can
// still see the message.
func (sh *shard) postFeeder(m shardMsg) bool {
	select {
	case sh.cmds <- m:
		sh.noteDepth(len(sh.cmds))
		return true
	case <-sh.done:
		if m.kind == msgEOF {
			m.s.closePumpDone()
		} else {
			sh.dropped.Add(1)
		}
		return false
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

// drainDirty is two-phase: drain every rung session's transport first,
// then step the touched set once. One poll round that readied N sockets
// of the same shard costs one sweep with one match attempt per session,
// however many segments each delivered — the batch granularity contract.
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
	sh.stepTouched()
}

// touch defers a session's match attempt to the end of the current ingest
// batch, coalescing however many chunks arrive meanwhile into one step.
func (sh *shard) touch(s *Session) {
	if !s.stepPending {
		s.stepPending = true
		sh.touched = append(sh.touched, s)
	}
}

// stepTouched steps every session the current batch touched exactly once.
func (sh *shard) stepTouched() {
	for _, s := range sh.touched {
		if s.stepPending {
			s.stepPending = false
			sh.stepSession(s)
		}
	}
	sh.touched = sh.touched[:0]
}

// maxSweepReads bounds how long one session may hold the loop; a firehose
// re-queues itself so its shard-mates still get stepped.
const maxSweepReads = 16

// ingest drains an event-capable transport from the loop — TryReadOwned
// segment handoff for zero-copy sockets, copying TryRead otherwise —
// then defers the session's match attempt to the end of the batch.
func (sh *shard) ingest(s *Session) {
	if s.shardEOF.Load() {
		return
	}
	if s.ownedMode {
		sh.ingestOwned(s)
		return
	}
	for reads := 0; reads < maxSweepReads; reads++ {
		stop := s.prof.Start(metrics.PhaseIO)
		n, ok, err := s.p.TryRead(sh.scratch)
		stop()
		if n > 0 {
			if s.ingest != nil {
				s.ingest.AddCopied(n)
			}
			s.applyChunk(sh.scratch[:n])
			if sh.rec.On() {
				sh.rec.RecordBytes(trace.KindRead, s.sid, int64(n), 0, false, sh.scratch[:n], nil)
			}
			sh.touch(s)
		}
		if !ok {
			return
		}
		if err != nil {
			if isTransient(err) {
				continue
			}
			sh.finishSession(s, err)
			return
		}
	}
	sh.markDirty(s)
}

// ingestOwned is ingest for ownership-transfer transports: each queued
// segment moves from the connection's inbox into the session whole — no
// scratch buffer, no copy in the steady state — and the lease travels
// with it (applyOwned either adopts it as match-buffer backing or, when
// a partial match pins the window, copies and releases).
func (sh *shard) ingestOwned(s *Session) {
	for reads := 0; reads < maxSweepReads; reads++ {
		stop := s.prof.Start(metrics.PhaseIO)
		o, ok, err := s.p.TryReadOwned()
		stop()
		if o != nil {
			if sh.rec.On() {
				// Record before the handoff: the recorder copies what it
				// keeps, and the lease may end inside applyOwned.
				sh.rec.RecordBytes(trace.KindRead, s.sid, int64(len(o.Bytes())), 0, false, o.Bytes(), nil)
			}
			s.applyOwned(o)
			sh.touch(s)
		}
		if !ok {
			return
		}
		if err != nil {
			if isTransient(err) {
				continue
			}
			sh.finishSession(s, err)
			return
		}
	}
	sh.markDirty(s)
}

// finishSession applies EOF exactly once, resolves what it resolves, and
// releases the session from the shard.
func (sh *shard) finishSession(s *Session, err error) {
	if s.shardEOF.Swap(true) {
		return
	}
	s.applyEOF(err)
	if sh.rec.On() {
		sh.rec.Record(trace.KindEOF, s.sid, 0, 0, false, s.name, "")
	}
	sh.stepSession(s)
	delete(sh.sessions, s)
	s.closePumpDone()
}

// admitOp is the synchronous attempt of invariant 4: a new Expect is
// stepped immediately on the loop, so anything already ingested — a
// buffered match, an EOF from a child that died mid-schedule — resolves
// it here instead of stranding it in the parked set.
func (sh *shard) admitOp(op *expectOp) {
	s := op.s
	s.mu.Lock()
	res, err, done := op.stepLocked(time.Now())
	s.mu.Unlock()
	if done {
		sh.resolve(op, res, err)
		return
	}
	sh.ops[s] = append(sh.ops[s], op)
	if !op.deadline.IsZero() {
		heap.Push(&sh.timers, op)
		op.timed = true
		if s.rec.On() {
			s.rec.Record(trace.KindTimerArm, s.sid, int64(time.Until(op.deadline)), 0, false, "", "")
		}
	}
}

// stepSession re-attempts every expect parked on s after fresh input.
func (sh *shard) stepSession(s *Session) {
	ops := sh.ops[s]
	if len(ops) == 0 {
		return
	}
	now := time.Now()
	keep := ops[:0]
	for _, op := range ops {
		if op.resolved {
			continue
		}
		s.mu.Lock()
		res, err, done := op.stepLocked(now)
		s.mu.Unlock()
		if done {
			sh.resolve(op, res, err)
		} else {
			keep = append(keep, op)
		}
	}
	if len(keep) == 0 {
		delete(sh.ops, s)
	} else {
		sh.ops[s] = keep
	}
}

// stepOp re-attempts a single op whose deadline fired.
func (sh *shard) stepOp(op *expectOp, now time.Time) {
	if op.resolved {
		return
	}
	s := op.s
	s.mu.Lock()
	res, err, done := op.stepLocked(now)
	s.mu.Unlock()
	if !done {
		// The timer fired a hair early; re-arm.
		heap.Push(&sh.timers, op)
		op.timed = true
		return
	}
	sh.resolve(op, res, err)
	ops := sh.ops[s]
	for i, o := range ops {
		if o == op {
			ops = append(ops[:i], ops[i+1:]...)
			break
		}
	}
	if len(ops) == 0 {
		delete(sh.ops, s)
	} else {
		sh.ops[s] = ops
	}
}

func (sh *shard) resolve(op *expectOp, res *MatchResult, err error) {
	op.resolved = true
	op.ch <- expectOutcome{res, err}
}

// CheckpointSession snapshots a session including any Expect calls parked
// on its owning shard loop — state Session.Checkpoint alone cannot see.
// Pump-driven sessions fall back to the plain snapshot.
func (sc *Scheduler) CheckpointSession(s *Session) (*SessionCheckpoint, error) {
	sh := s.shard
	if sh == nil {
		return s.Checkpoint(), nil
	}
	cpc := make(chan *SessionCheckpoint, 1)
	select {
	case sh.cmds <- shardMsg{kind: msgCheckpoint, s: s, cpc: cpc}:
		sh.noteDepth(len(sh.cmds))
	case <-sh.done:
		return nil, ErrClosed
	}
	select {
	case cp := <-cpc:
		return cp, nil
	case <-sh.done:
		return nil, ErrClosed
	}
}

// runExpect hands an op to the owning shard and blocks the caller until
// the loop resolves it.
func (sh *shard) runExpect(op *expectOp) (*MatchResult, error) {
	op.ch = make(chan expectOutcome, 1)
	select {
	case sh.cmds <- shardMsg{kind: msgExpect, s: op.s, op: op}:
		sh.noteDepth(len(sh.cmds))
	case <-sh.done:
		return nil, ErrClosed
	}
	select {
	case out := <-op.ch:
		return out.res, out.err
	case <-sh.done:
		// The loop exited; its shutdown path resolves admitted ops, so
		// one more non-blocking look before giving up.
		select {
		case out := <-op.ch:
			return out.res, out.err
		default:
			return nil, ErrClosed
		}
	}
}

// feed is the dedicated reader for transports that cannot TryRead (pty,
// pipe, fault-wrapped): blocking reads, chunks posted into the owning
// shard's bounded queue.
func (s *Session) feed(sh *shard) {
	chunk := make([]byte, 4096)
	for {
		stop := s.prof.Start(metrics.PhaseIO)
		n, err := s.rw.Read(chunk)
		stop()
		if n > 0 {
			data := make([]byte, n)
			copy(data, chunk[:n])
			if s.ingest != nil {
				// The clone is a real ingest-path copy+alloc; the queue
				// hand-off that follows is not.
				s.ingest.AddCopied(n)
				s.ingest.AddAlloc()
			}
			if !sh.postFeeder(shardMsg{kind: msgChunk, s: s, data: data}) {
				return
			}
		}
		if err != nil {
			if isTransient(err) {
				continue
			}
			sh.postFeeder(shardMsg{kind: msgEOF, s: s, err: err})
			return
		}
	}
}

// opHeap orders parked expect ops by deadline (earliest first); resolved
// entries are skipped lazily by the loop.
type opHeap []*expectOp

func (h opHeap) Len() int           { return len(h) }
func (h opHeap) Less(i, j int) bool { return h[i].deadline.Before(h[j].deadline) }
func (h opHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)        { *h = append(*h, x.(*expectOp)) }
func (h *opHeap) Pop() any {
	old := *h
	n := len(old)
	op := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return op
}
