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
//
// Missed-wakeup audit: the fan-in paths here and in ExpectAny are safe
// against a child exiting between the attempt (the HasData/scan pass) and
// the wait, because the shared wake channel is registered with every
// session *before* the first attempt and both chunk and EOF ingest — pump
// or shard loop, apply/applyEOF — poke watchers under s.mu. The
// window that does exist under sharding is on the ingest side: a child
// that spoke or died before its shard took ownership would never ring
// the doorbell. adopt closes it with an unconditional initial markDirty.
// A parked Expect has no such window: its admission attempt and its
// parking share one critical section under s.mu, so ingest lands before
// the attempt or finds the op parked. TestShardedFanInCutChildNoHang and
// TestShardedEOFBeforeExpectResolves pin both, killing a child
// mid-dialogue with a faultify CutAfterBytes schedule.
func Select(d time.Duration, sessions ...*Session) []*Session {
	var deadline time.Time
	if d >= 0 {
		deadline = time.Now().Add(d)
	}
	// One shared wakeup channel, registered with every session.
	wake := make(chan struct{}, 1)
	for _, s := range sessions {
		s.addWatcher(wake)
		defer s.removeWatcher(wake)
	}
	for {
		var ready []*Session
		for _, s := range sessions {
			if s.HasData() {
				ready = append(ready, s)
			}
		}
		if len(ready) > 0 {
			return ready
		}
		if deadline.IsZero() {
			<-wake
			continue
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil
		}
		t := time.NewTimer(remaining)
		select {
		case <-wake:
			t.Stop()
		case <-t.C:
			return nil
		}
	}
}
