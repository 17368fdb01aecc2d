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

	// ParkedOps counts unresolved Expect calls parked on the session;
	// RemainingTimeoutNS is the earliest armed deadline among them, in
	// nanoseconds from the snapshot instant (-1 when none is armed).
	ParkedOps          int   `json:"parked_ops"`
	RemainingTimeoutNS int64 `json:"remaining_timeout_ns"`

	// Dialogue counters: expects issued and how each resolved. Their
	// conservation law (matches + timeouts + eofs accounts for every
	// completed expect) is the same one the load workbench asserts.
	Expects  int64 `json:"expects"`
	Matches  int64 `json:"matches"`
	Timeouts int64 `json:"timeouts"`
	Eofs     int64 `json:"eofs"`
}

// Info snapshots the session under its lock, parked Expect calls
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
	info.ParkedOps = len(s.parked)
	for _, op := range s.parked {
		rem := op.remainingNS(now)
		if rem >= 0 && (info.RemainingTimeoutNS < 0 || rem < info.RemainingTimeoutNS) {
			info.RemainingTimeoutNS = rem
		}
	}
	s.mu.Unlock()
	info.Kind = s.Kind()
	return info
}

// ShardSnapshot is one shard loop's telemetry snapshot: its backlog, its
// losses, the wakeup-servicing latency distribution, and every session it
// owns. Taken on the loop itself (msgInspect), so the session set is
// exactly the one the loop acts on next; each session's parked ops are
// read under that session's lock.
type ShardSnapshot struct {
	Shard      int                 `json:"shard"`
	QueueDepth int                 `json:"queue_depth"`
	PeakDepth  int                 `json:"peak_depth"`
	Dropped    uint64              `json:"dropped"`
	ParkedOps  int                 `json:"parked_ops"`
	Wakeup     metrics.HistSummary `json:"wakeup"`
	Sessions   []SessionInfo       `json:"sessions,omitempty"`
}

// inspect builds the snapshot on the shard loop, sessions sorted by SID
// for deterministic output.
func (sh *shard) inspect() ShardSnapshot {
	snap := ShardSnapshot{
		Shard:      sh.idx,
		QueueDepth: sh.backlog(),
		PeakDepth:  int(sh.depthPeak.Load()),
		Dropped:    sh.dropped.Load(),
		Wakeup:     sh.wake.Summary("wakeup"),
	}
	for s := range sh.sessions {
		info := s.Info()
		snap.ParkedOps += info.ParkedOps
		snap.Sessions = append(snap.Sessions, info)
	}
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].SID < snap.Sessions[j].SID })
	return snap
}

// backlog samples the shard's current queue depth: queued messages plus
// dirty sessions awaiting a sweep. Safe from any goroutine.
func (sh *shard) backlog() int {
	sh.dirtyMu.Lock()
	d := len(sh.dirty)
	sh.dirtyMu.Unlock()
	return len(sh.cmds) + d
}

// requestInspect posts msgInspect and waits for the loop's reply. A
// stopped or
// draining loop yields an empty snapshot instead of an error: the
// telemetry plane must stay readable while the daemon drains, and an
// empty shard is the truthful answer once its loop has exited.
func (sh *shard) requestInspect() ShardSnapshot {
	insp := make(chan ShardSnapshot, 1)
	select {
	case sh.cmds <- shardMsg{kind: msgInspect, insp: insp}:
		sh.noteDepth(len(sh.cmds))
	case <-sh.done:
		return ShardSnapshot{Shard: sh.idx}
	}
	select {
	case snap := <-insp:
		return snap
	case <-sh.done:
		return ShardSnapshot{Shard: sh.idx}
	}
}

// SnapshotShards returns one loop-consistent snapshot per shard. Each
// shard's snapshot is internally consistent (taken on its loop between
// batches); the slice as a whole is not a global cut — shard 0 may step a
// session while shard 1 is being photographed — which is the same
// consistency a fleet scrape of separate processes would get.
func (sc *Scheduler) SnapshotShards() []ShardSnapshot {
	if sc == nil {
		return nil
	}
	out := make([]ShardSnapshot, len(sc.shards))
	for i, sh := range sc.shards {
		out[i] = sh.requestInspect()
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
// merged wakeup histogram. Queue depth, peak, and dropped are read from
// the shards without a loop round-trip; the per-shard session and
// parked-op gauges take a loop snapshot per render, which is what makes
// them consistent with the loops' own view. Safe on a nil scheduler or
// registry.
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
		"Queued messages plus dirty sessions awaiting a sweep, per shard.",
		"shard", shardVec((*shard).backlog))
	r.GaugeVec("expect_shard_queue_peak",
		"High-water shard backlog since start, per shard.",
		"shard", shardVec(func(sh *shard) int { return int(sh.depthPeak.Load()) }))
	r.Counter("expect_shard_dropped_total",
		"Events lost at the drain deadline across all shards (zero on a clean run).",
		func() float64 { return float64(sc.Dropped()) })
	r.GaugeVec("expect_shard_sessions",
		"Sessions owned per shard loop (loop-consistent snapshot).",
		"shard", func() map[string]float64 {
			out := make(map[string]float64, len(sc.shards))
			for _, snap := range sc.SnapshotShards() {
				out[shardLabel(snap.Shard)] = float64(len(snap.Sessions))
			}
			return out
		})
	r.GaugeVec("expect_shard_parked_ops",
		"Unresolved Expect calls parked per shard loop.",
		"shard", func() map[string]float64 {
			out := make(map[string]float64, len(sc.shards))
			for _, snap := range sc.SnapshotShards() {
				out[shardLabel(snap.Shard)] = float64(snap.ParkedOps)
			}
			return out
		})
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
