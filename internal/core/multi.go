package core

import (
	"slices"
	"time"
)

// ExpectAny is the combined expect/select the paper's §8 wonders about
// ("How would the buffering work in a combined expect/select command?").
// The answer implemented here: every session keeps its own independent
// match buffer, and the call issues one expect op per session, each with
// the pattern cases and all with one shared deadline. After every wakeup
// the ops are stepped in argument order, by the same attempt that
// resolves an Expect, and the first match wins, consuming only from that
// session's buffer. A session at EOF drops out. The EOF case fires (or
// ErrEOF returns) once every session is at EOF, the timeout case (or
// ErrTimeout) at the shared deadline, where every session still live
// records its timeout. The losers' ops are dropped unresolved.
//
// It returns the winning session alongside the match; the session is nil
// on EOF and timeout. Without an EOF or timeout case, the error is the
// *ExpectError of the first session to reach EOF, or of the first to
// time out. With no sessions it waits out the deadline and returns
// ErrTimeout alone.
func ExpectAny(d time.Duration, sessions []*Session, cases ...Case) (*Session, *MatchResult, error) {
	// The ops carry no EOF or timeout case: one would fire, and an EOF
	// case reset the buffer, at a single session's verdict. patIdx maps an
	// op's case index back onto cases.
	eofIdx := slices.IndexFunc(cases, func(c Case) bool { return c.Kind == CaseEOF })
	timeoutIdx := slices.IndexFunc(cases, func(c Case) bool { return c.Kind == CaseTimeout })
	var pats []Case
	var patIdx []int
	for i, c := range cases {
		if c.Kind != CaseEOF && c.Kind != CaseTimeout {
			pats = append(pats, c)
			patIdx = append(patIdx, i)
		}
	}
	deadline := deadlineAfter(d)
	// Each op gets its own copy of the cases: an incremental matcher
	// keeps its state in the Case.
	ops := make([]*expectOp, len(sessions))
	for i, s := range sessions {
		ops[i] = s.newExpectOp(d, slices.Clone(pats))
		ops[i].deadline = deadline
	}
	var winner *Session
	var res *MatchResult
	var err error
	live := len(ops)
	waitAny(deadline, sessions, ops, func(now time.Time) bool {
		for i, op := range ops {
			if op == nil {
				continue
			}
			op.s.mu.Lock()
			r, e, done := op.stepLocked(now)
			op.s.mu.Unlock()
			if !done {
				continue
			}
			ops[i] = nil
			live--
			if !r.Eof && !r.TimedOut {
				winner, res = op.s, r
				return true
			}
			// The first EOF is reported, unless a session timed out.
			if res == nil || r.TimedOut && !res.TimedOut {
				res, err = r, e
			}
		}
		return len(ops) > 0 && live == 0
	})
	if res == nil {
		return nil, nil, ErrTimeout // no sessions: the deadline passed
	}
	arm := eofIdx
	switch {
	case winner != nil:
		arm = patIdx[res.Index]
	case res.TimedOut:
		arm = timeoutIdx
	}
	if arm < 0 {
		return nil, res, err
	}
	res.Index, res.Case = arm, cases[arm]
	return winner, res, nil
}
