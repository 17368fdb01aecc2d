package core

import (
	"time"
)

// Select returns the subset of sessions that have input pending, waiting
// until at least one can be read or the timeout expires (§3.2's select
// command). A session with buffered data or EOF counts as readable. A nil
// result means the timeout expired; d < 0 waits forever.
//
// This is the primitive behind programmed job control: the chess-vs-chess
// and Eliza-vs-Eliza loops of §2.2 poll their two children with it instead
// of the 200 hand-typed ^Z/fg sequences the shell would demand.
func Select(d time.Duration, sessions ...*Session) []*Session {
	var ready []*Session
	waitAny(deadlineAfter(d), sessions, nil, func(time.Time) bool {
		for _, s := range sessions {
			if s.HasData() {
				ready = append(ready, s)
			}
		}
		return len(ready) > 0
	})
	return ready
}

// deadlineAfter is the instant d from now, or the zero time (wait
// forever) for d < 0.
func deadlineAfter(d time.Duration) time.Time {
	if d < 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// waitAny is the one wait loop of the waits that watch sessions from the
// caller's goroutine: Select, ExpectAny and ExpectScreen. It calls try
// with the time of each attempt until try reports done, sleeping between
// attempts until one of the sessions changes or the deadline (zero: none)
// passes. An attempt made at or after the deadline is the last. ops, when
// non-nil, holds the expect op try steps for each session (ExpectAny's
// members); each session's registration carries its op, so Info shows
// the wait.
//
// Missed-wakeup audit: the wait is safe against a child speaking or
// exiting between an attempt and the sleep, because one wake channel is
// registered with every session *before* the first attempt, and both
// chunk and EOF ingest (apply, applyEOF), on a pump or a shard loop, poke
// the watchers under s.mu; the one-slot channel keeps a poke that lands
// while try runs. Every exit removes the channel again. The window that
// does exist under sharding is on the ingest side: a child that spoke or
// died before its shard took ownership would never ring the doorbell.
// adopt closes it with an unconditional initial markDirty. A parked
// Expect has no such window: its admission attempt and its parking share
// one critical section under s.mu, so ingest lands before the attempt or
// finds the op parked. TestShardedFanInCutChildNoHang and
// TestShardedEOFBeforeExpectResolves pin both, killing a child
// mid-dialogue with a faultify CutAfterBytes schedule.
func waitAny(deadline time.Time, sessions []*Session, ops []*expectOp, try func(now time.Time) bool) {
	wake := make(chan struct{}, 1)
	for i, s := range sessions {
		var op *expectOp
		if ops != nil {
			op = ops[i]
		}
		s.addWatcher(wake, op)
	}
	defer func() {
		for _, s := range sessions {
			s.removeWatcher(wake)
		}
	}()
	var expired <-chan time.Time // nil until armed: wait for a wake only
	for {
		now := time.Now()
		if try(now) || !deadline.IsZero() && !now.Before(deadline) {
			return
		}
		if expired == nil && !deadline.IsZero() {
			t := time.NewTimer(deadline.Sub(now))
			defer t.Stop()
			expired = t.C
		}
		select {
		case <-wake:
		case <-expired:
			// Re-armed above should the clock still read short of the
			// deadline, so the last attempt is never missed.
			expired = nil
		}
	}
}
