package core

import (
	"sort"
	"time"

	"repro/internal/metrics"
)

// This file is the engine's live-introspection surface: structured
// snapshots of sessions, shards, and counters for the telemetry plane
// (expectd's /debug/sessions and /debug/shards, goexpect -stats). The
// paper's exp_internal shows one dialogue after the fact; these answer
// "what are all ten thousand dialogues doing right now" without stopping
// any of them.

// SessionInfo is one session's telemetry snapshot, JSON-shaped for the
// admin endpoint. Every session, pump-driven or shard-owned, reports the
// Expect calls parked on it.
type SessionInfo struct {
	SID   int32  `json:"sid"`
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	State string `json:"state"` // "open", "eof", or "closed"
	Shard int    `json:"shard"` // -1 for pump-driven sessions

	BufferLen int   `json:"buffer_len"`
	MatchMax  int   `json:"match_max"`
	TotalSeen int64 `json:"total_seen"`
	Forgotten int64 `json:"forgotten"`

	// ParkedOps counts the unresolved Expect calls waiting on the
	// session: those parked on it, and the op of an ExpectAny it is a
	// member of, which waits on the fan-in's watcher until it wins, the
	// call ends, or the session reaches EOF and drops out.
	// RemainingTimeoutNS is the earliest armed deadline among them, in
	// nanoseconds from the snapshot instant (-1 when none is armed).
	ParkedOps          int   `json:"parked_ops"`
	RemainingTimeoutNS int64 `json:"remaining_timeout_ns"`

	// Dialogue counters: expects issued and how each resolved. Their
	// conservation law (matches + timeouts + eofs accounts for every
	// completed expect) is the same one the load workbench asserts. An
	// op that never completes counts in Expects alone: an ExpectAny
	// loser, dropped unresolved once another session wins, like an op a
	// stopping shard abandons.
	Expects  int64 `json:"expects"`
	Matches  int64 `json:"matches"`
	Timeouts int64 `json:"timeouts"`
	Eofs     int64 `json:"eofs"`
}

// Info snapshots the session under its lock, waiting Expect calls
// included.
func (s *Session) Info() SessionInfo {
	now := time.Now()
	s.mu.Lock()
	info := SessionInfo{
		SID:                s.sid,
		Name:               s.name,
		State:              "open",
		Shard:              -1,
		BufferLen:          s.mb.length(),
		MatchMax:           s.mb.max,
		TotalSeen:          s.totalSeen,
		Forgotten:          s.forgotten,
		RemainingTimeoutNS: -1,
		Expects:            s.nExpects.Load(),
		Matches:            s.nMatches.Load(),
		Timeouts:           s.nTimeouts.Load(),
		Eofs:               s.nEofs.Load(),
	}
	switch {
	case s.closed:
		info.State = "closed"
	case s.eof:
		info.State = "eof"
	}
	if s.shard != nil {
		info.Shard = s.shard.idx
	}
	s.eachWaitingLocked(func(op *expectOp) {
		info.ParkedOps++
		rem := op.remainingNS(now)
		if rem >= 0 && (info.RemainingTimeoutNS < 0 || rem < info.RemainingTimeoutNS) {
			info.RemainingTimeoutNS = rem
		}
	})
	s.mu.Unlock()
	info.Kind = s.Kind()
	return info
}

// eachWaitingLocked calls fn for every unresolved Expect call waiting on
// the session: each parked op, and the op of each ExpectAny the session
// is a member of, unless the session is at EOF, where a member has
// dropped out. The caller holds s.mu.
func (s *Session) eachWaitingLocked(fn func(*expectOp)) {
	for _, op := range s.parked {
		fn(op)
	}
	if s.eof {
		return
	}
	for _, op := range s.watchers {
		if op != nil {
			fn(op)
		}
	}
}

// ShardSnapshot is one shard's telemetry snapshot: its backlog, its
// losses, the wakeup-servicing latency distribution, and every session it
// owns. The session set is copied under the shard's lock, so a session is
// in it from registration to its finish; each session's parked ops are
// then read under that session's lock.
type ShardSnapshot struct {
	Shard int `json:"shard"`
	// QueueDepth and PeakDepth count dirty sessions awaiting a sweep,
	// now and at the high-water mark; a shard queues no messages.
	QueueDepth int                 `json:"queue_depth"`
	PeakDepth  int                 `json:"peak_depth"`
	Dropped    uint64              `json:"dropped"`
	ParkedOps  int                 `json:"parked_ops"`
	Wakeup     metrics.HistSummary `json:"wakeup"`
	Sessions   []SessionInfo       `json:"sessions,omitempty"`
}

// inspect builds the snapshot, sessions sorted by SID for deterministic
// output. It never waits on the loop.
func (sh *shard) inspect() ShardSnapshot {
	snap := ShardSnapshot{
		Shard:      sh.idx,
		QueueDepth: sh.backlog(),
		PeakDepth:  int(sh.depthPeak.Load()),
		Dropped:    sh.dropped.Load(),
		Wakeup:     sh.wake.Summary("wakeup"),
	}
	for _, s := range sh.owned() {
		info := s.Info()
		snap.ParkedOps += info.ParkedOps
		snap.Sessions = append(snap.Sessions, info)
	}
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].SID < snap.Sessions[j].SID })
	return snap
}

// backlog samples the shard's current queue depth: the dirty sessions
// awaiting a sweep. Safe from any goroutine.
func (sh *shard) backlog() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.dirty)
}

// size is the number of sessions the shard owns.
func (sh *shard) size() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.sessions)
}

// parkedOps counts the Expect calls waiting on the shard's sessions, as
// Info counts them.
func (sh *shard) parkedOps() int {
	n := 0
	for _, s := range sh.owned() {
		s.mu.Lock()
		s.eachWaitingLocked(func(*expectOp) { n++ })
		s.mu.Unlock()
	}
	return n
}

// SnapshotShards returns one snapshot per shard. Each shard's session set
// is read at one instant; the slice as a whole is not a global cut —
// shard 0 may step a session while shard 1 is being photographed — which
// is the same consistency a fleet scrape of separate processes would get.
// It never waits on a loop: on a stopped or draining scheduler each shard
// reports what it still owns, which is nothing once its loop has exited.
func (sc *Scheduler) SnapshotShards() []ShardSnapshot {
	if sc == nil {
		return nil
	}
	out := make([]ShardSnapshot, len(sc.shards))
	for i, sh := range sc.shards {
		out[i] = sh.inspect()
	}
	return out
}

// SessionInfos flattens SnapshotShards into the per-session view, sorted
// by SID across all shards.
func (sc *Scheduler) SessionInfos() []SessionInfo {
	var out []SessionInfo
	for _, snap := range sc.SnapshotShards() {
		out = append(out, snap.Sessions...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SID < out[j].SID })
	return out
}

// ShardWakeups returns every shard's wakeup-servicing histogram; the
// registry merges them into one fleet distribution at render time.
func (sc *Scheduler) ShardWakeups() []*metrics.Histogram {
	if sc == nil {
		return nil
	}
	out := make([]*metrics.Histogram, len(sc.shards))
	for i, sh := range sc.shards {
		out[i] = &sh.wake
	}
	return out
}

// RegisterMetrics publishes the scheduler's per-shard gauges and the
// merged wakeup histogram. Every gauge reads the shards directly, without
// a loop round-trip and without building a session snapshot: queue depth,
// peak and dropped from counters, sessions from the size of each shard's
// set, and parked ops from each owned session's parked count. Safe on a
// nil scheduler or registry.
func (sc *Scheduler) RegisterMetrics(r *metrics.Registry) {
	if sc == nil || r == nil {
		return
	}
	shardVec := func(val func(*shard) int) func() map[string]float64 {
		return func() map[string]float64 {
			out := make(map[string]float64, len(sc.shards))
			for i, sh := range sc.shards {
				out[shardLabel(i)] = float64(val(sh))
			}
			return out
		}
	}
	r.GaugeVec("expect_shard_queue_depth",
		"Dirty sessions awaiting a sweep, per shard.",
		"shard", shardVec((*shard).backlog))
	r.GaugeVec("expect_shard_queue_peak",
		"High-water count of dirty sessions since start, per shard.",
		"shard", shardVec(func(sh *shard) int { return int(sh.depthPeak.Load()) }))
	r.Counter("expect_shard_dropped_total",
		"Events lost at the drain deadline across all shards (zero on a clean run).",
		func() float64 { return float64(sc.Dropped()) })
	r.GaugeVec("expect_shard_sessions",
		"Sessions owned per shard loop.",
		"shard", shardVec((*shard).size))
	r.GaugeVec("expect_shard_parked_ops",
		"Unresolved Expect calls parked per shard loop.",
		"shard", shardVec((*shard).parkedOps))
	r.Histogram("expect_shard_wakeup_seconds",
		"Wakeup-servicing latency per shard loop batch, merged across shards.",
		sc.ShardWakeups)
}

func shardLabel(i int) string {
	// Small-int itoa without strconv in the render hot path.
	if i >= 0 && i < 10 {
		return string(rune('0' + i))
	}
	buf := [8]byte{}
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// SessionInfos returns the telemetry snapshot of every live engine
// session, sorted by SID; each carries its parked Expect calls.
func (e *Engine) SessionInfos() []SessionInfo {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	sessions := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		sessions = append(sessions, s)
	}
	e.mu.Unlock()

	out := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SID < out[j].SID })
	return out
}

// RegisterMetrics publishes the engine's telemetry into r: live-session
// and spawn-total gauges, the profiler's phase shares and latency
// histograms (when a profiler is armed), and the scheduler's per-shard
// families (when sharded). This is the one wiring point expectd and
// goexpect -stats both use.
func (e *Engine) RegisterMetrics(r *metrics.Registry) {
	if e == nil || r == nil {
		return
	}
	r.Gauge("expect_sessions_live", "Live sessions in the engine table.",
		func() float64 {
			e.mu.Lock()
			n := len(e.sessions)
			e.mu.Unlock()
			return float64(n)
		})
	r.Counter("expect_spawns_total", "Sessions ever spawned by this engine.",
		func() float64 {
			e.mu.Lock()
			n := e.nextID
			e.mu.Unlock()
			return float64(n)
		})
	e.prof.RegisterInto(r)
	e.sched.RegisterMetrics(r)
}
