package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"time"

	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/trace"
)

// CaseKind classifies an expect case.
type CaseKind int

// Case kinds. Glob is the paper's pattern flavor ("the usual
// C-shell-style regular expressions", anchored to the whole buffer, §3.1);
// Exact and Regexp are the library extensions later expect versions grew.
const (
	CaseGlob CaseKind = iota
	CaseExact
	CaseRegexp
	CaseEOF
	CaseTimeout
)

// Case is one pattern/action arm of an expect command.
type Case struct {
	Kind    CaseKind
	Pattern string
	re      *regexp.Regexp
	inc     *pattern.Incremental
	// glob and lit are the compiled forms, filled in by prepareCases once
	// per Expect call so the per-wakeup scan is allocation-free.
	glob *pattern.Compiled
	lit  []byte
}

// Glob builds a glob case. Per the paper, the pattern must match the
// entire buffered output, "hence the reason most are surrounded by the *
// wildcard".
func Glob(pat string) Case { return Case{Kind: CaseGlob, Pattern: pat} }

// Exact builds a literal-substring case.
func Exact(s string) Case { return Case{Kind: CaseExact, Pattern: s} }

// Regexp builds a regular-expression case; it panics on a bad pattern
// (compile with pattern.CompileRegexp first to handle errors).
func Regexp(pat string) Case {
	re, err := pattern.CompileRegexp(pat)
	if err != nil {
		panic(err)
	}
	return Case{Kind: CaseRegexp, Pattern: pat, re: re}
}

// prepareCases fills in the compiled form of each case: globs come from
// the shared compile cache, exact patterns become byte slices. Done once
// per Expect call; every subsequent wakeup matches compiled programs
// directly over the buffer bytes without allocating.
func prepareCases(cases []Case, prof *metrics.Profiler) {
	stop := prof.Start(metrics.PhaseCompile)
	for i := range cases {
		switch cases[i].Kind {
		case CaseGlob:
			cases[i].glob = pattern.CompileGlob(cases[i].Pattern)
		case CaseExact:
			cases[i].lit = []byte(cases[i].Pattern)
		}
	}
	stop()
}

// EOFCase fires when the process closes its output.
func EOFCase() Case { return Case{Kind: CaseEOF} }

// TimeoutCase fires when the expect deadline passes.
func TimeoutCase() Case { return Case{Kind: CaseTimeout} }

// MatchResult describes how an Expect call completed.
type MatchResult struct {
	// Index is the position of the winning case in the argument list.
	Index int
	// Case is the winning case.
	Case Case
	// Text is "the exact string matched (or read but unmatched, if a
	// timeout occurred)" — the paper's expect_match variable. For glob
	// cases this is the entire buffer (anchored semantics); for exact and
	// regexp cases it is everything consumed through the end of the match.
	Text string
	// TimedOut and Eof report which special condition fired, if any.
	TimedOut bool
	Eof      bool
}

// Expect waits with the session's default timeout. See ExpectTimeout.
func (s *Session) Expect(cases ...Case) (*MatchResult, error) {
	return s.ExpectTimeout(s.Timeout(), cases...)
}

// ExpectMatch is the one-pattern convenience: wait for a single glob.
func (s *Session) ExpectMatch(glob string) (*MatchResult, error) {
	return s.Expect(Glob(glob))
}

// ExpectTimeout waits until the process output matches one of cases, the
// deadline d passes (d < 0 waits forever), or EOF arrives. Cases are
// checked in order on every new chunk of output; the first match wins.
// On match the consumed bytes are removed from the buffer, so consecutive
// Expect calls see only fresh output ("patterns must match the entire
// output of the current process since the previous expect", §3.1).
//
// Timeout and EOF return errors (ErrTimeout, ErrEOF) unless the case list
// includes TimeoutCase or EOFCase, in which case they complete normally
// with the corresponding case index.
func (s *Session) ExpectTimeout(d time.Duration, cases ...Case) (*MatchResult, error) {
	op := s.newExpectOp(d, cases)
	if sh := s.shard; sh != nil {
		return sh.runExpect(op)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		res, err, done := op.stepLocked(time.Now())
		if done {
			return res, err
		}
		// Nothing matched and the stream is live: wait for more output.
		var remaining time.Duration
		if !op.deadline.IsZero() {
			remaining = time.Until(op.deadline)
			if remaining <= 0 {
				// The deadline slipped past between the step's timestamp and
				// here; go around so the step resolves the timeout.
				continue
			}
		}
		s.waitLocked(remaining)
	}
}

// expectOutcome carries a resolved expect across the shard boundary.
type expectOutcome struct {
	res *MatchResult
	err error
}

// expectOp is one in-flight Expect call in step form. The classic path
// drives it from a cond-wait loop; a shard event loop drives it from
// ingest and timer events. Either way every attempt runs stepLocked, so
// the two schedulers cannot drift semantically.
type expectOp struct {
	s           *Session
	cases       []Case
	start       time.Time
	deadline    time.Time // zero = wait forever
	incremental bool

	// Lazily initialized by the first step (under s.mu): incremental NFA
	// construction and the feed/read-to-wakeup high-water marks.
	inited   bool
	fed      int64 // totalSeen high-water mark already fed to matchers
	seenMark int64 // output this call has reacted to (latency histogram)

	// Sharded-delivery state, owned by the shard loop.
	ch       chan expectOutcome
	resolved bool
	timed    bool // sitting in the shard's timer heap
}

// newExpectOp compiles the case patterns once and records the expect
// event; the per-wakeup steps only run compiled programs over buffer
// bytes.
func (s *Session) newExpectOp(d time.Duration, cases []Case) *expectOp {
	s.nExpects.Add(1)
	op := &expectOp{
		s:           s,
		cases:       cases,
		start:       time.Now(),
		incremental: s.matcher == MatcherIncremental,
	}
	if d >= 0 {
		op.deadline = op.start.Add(d)
	}
	prepareCases(cases, s.prof)
	if s.rec.On() {
		t := int64(-1)
		if d >= 0 {
			t = int64(d)
		}
		if s.rec.Journaling() {
			// A journaled expect carries its serialized case list so a
			// replay can reconstruct the exact call; ring-only runs skip
			// the encoding allocation.
			s.rec.RecordData(trace.KindExpect, s.sid, int64(len(cases)), t, false, "", "", EncodeCases(cases))
		} else {
			s.rec.Record(trace.KindExpect, s.sid, int64(len(cases)), t, false, "", "")
		}
	}
	return op
}

// caseJSON is the journal schema for one expect case.
type caseJSON struct {
	K int    `json:"k"`
	P string `json:"p,omitempty"`
}

// EncodeCases serializes an expect case list for the journal (kind +
// pattern per case; compiled forms are rebuilt on decode).
func EncodeCases(cases []Case) []byte {
	out := make([]caseJSON, len(cases))
	for i, c := range cases {
		out[i] = caseJSON{K: int(c.Kind), P: c.Pattern}
	}
	b, _ := json.Marshal(out)
	return b
}

// DecodeCases inverts EncodeCases, recompiling regexp cases.
func DecodeCases(data []byte) ([]Case, error) {
	var in []caseJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("core: bad case list %q: %w", data, err)
	}
	out := make([]Case, len(in))
	for i, c := range in {
		cs, err := caseFromSpec(c.K, c.P)
		if err != nil {
			return nil, fmt.Errorf("core: case %d: %w", i, err)
		}
		out[i] = cs
	}
	return out, nil
}

// caseFromSpec rebuilds one case from its portable kind+pattern form,
// recompiling as needed. Shared by journal decode and checkpoint restore.
func caseFromSpec(kind int, pat string) (Case, error) {
	switch CaseKind(kind) {
	case CaseGlob:
		return Glob(pat), nil
	case CaseExact:
		return Exact(pat), nil
	case CaseRegexp:
		re, err := pattern.CompileRegexp(pat)
		if err != nil {
			return Case{}, err
		}
		return Case{Kind: CaseRegexp, Pattern: pat, re: re}, nil
	case CaseEOF:
		return EOFCase(), nil
	case CaseTimeout:
		return TimeoutCase(), nil
	default:
		return Case{}, fmt.Errorf("unknown case kind %d", kind)
	}
}

// ManualExpect is an Expect call driven by hand: no cond-wait, no shard
// loop, no wall clock. The replay engine uses it to reproduce a journaled
// run's exact wakeup structure — Feed a chunk, Step a scan — and the
// checkpoint path uses it to resume a restored pending op. It must not be
// mixed with a concurrent Expect on the same session.
type ManualExpect struct {
	op *expectOp
}

// BeginExpect starts a manually-stepped expect call. Unlike ExpectTimeout
// it returns immediately without scanning; the first Step is the first
// wakeup.
func (s *Session) BeginExpect(d time.Duration, cases ...Case) *ManualExpect {
	return &ManualExpect{op: s.newExpectOp(d, cases)}
}

// Step runs one match attempt (one wakeup) at the op's start time, so an
// armed deadline can never fire mid-stream: recorded timeouts are replayed
// by StepDeadline, not by racing the clock.
func (m *ManualExpect) Step() (*MatchResult, error, bool) {
	s := m.op.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.op.stepLocked(m.op.start)
}

// StepDeadline runs one match attempt with the clock forced past the op's
// deadline, resolving the call as the recorded timeout did — virtual time,
// no waiting. With no deadline armed it behaves like Step.
func (m *ManualExpect) StepDeadline() (*MatchResult, error, bool) {
	s := m.op.s
	now := m.op.deadline
	if now.IsZero() {
		return m.Step()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.op.stepLocked(now)
}

// stepLocked runs one match attempt: feed fresh bytes to incremental
// matchers, scan the cases, then resolve EOF or a passed deadline. It
// returns done=false when the stream is live, nothing matched, and the
// deadline (if any) is still ahead of now. The caller holds s.mu.
func (op *expectOp) stepLocked(now time.Time) (*MatchResult, error, bool) {
	s := op.s
	if !op.inited {
		op.inited = true
		if op.incremental {
			// One incremental matcher per glob case, carrying NFA state
			// across wakeups so nothing is rescanned.
			for i := range op.cases {
				if op.cases[i].Kind == CaseGlob {
					op.cases[i].inc = pattern.NewIncremental(op.cases[i].Pattern)
				}
			}
			op.fed = s.totalSeen - int64(s.mb.length())
		}
		op.seenMark = s.totalSeen
	}
	cases := op.cases

	var wake time.Time
	if s.prof != nil {
		wake = now
		if s.totalSeen > op.seenMark && !s.lastRead.IsZero() {
			s.prof.Observe(metrics.HistReadToWakeup, wake.Sub(s.lastRead))
		}
		op.seenMark = s.totalSeen
	}

	buf := s.mb.bytes()
	if op.incremental {
		// Feed only bytes not yet seen by the matchers. If match_max
		// trimming outran the feed (a torrent arrived in one read),
		// the skipped bytes are exactly the ones the engine forgot.
		delta := s.totalSeen - op.fed
		if delta > int64(len(buf)) {
			delta = int64(len(buf))
		}
		if delta > 0 {
			fresh := buf[int64(len(buf))-delta:]
			stop := s.prof.Start(metrics.PhaseMatch)
			for i := range cases {
				if cases[i].inc != nil {
					cases[i].inc.Feed(fresh)
				}
			}
			stop()
			op.fed = s.totalSeen
		}
	}

	// Scan cases in order against the buffered output. The traced
	// variant records one attempt event per case; the untraced one is
	// the allocation-free fast path.
	stop := s.prof.Start(metrics.PhaseMatch)
	var idx, consumed int
	if s.rec.On() {
		idx, consumed = s.scanCasesTraced(buf, cases, op.incremental)
	} else {
		idx, consumed = scanCases(buf, cases, op.incremental)
	}
	stop()
	if s.prof != nil {
		s.prof.Observe(metrics.HistWakeupToMatch, time.Since(wake))
	}
	// buf may alias adopted backing that consume and reset release to its
	// pool, so everything that reads it runs first.
	if idx >= 0 {
		text := string(buf[:consumed])
		if s.rec.On() {
			s.rec.RecordBytes(trace.KindMatch, s.sid, int64(idx), int64(consumed), true, buf[:consumed], nil)
		}
		s.mb.consume(consumed)
		s.nMatches.Add(1)
		return &MatchResult{Index: idx, Case: cases[idx], Text: text}, nil, true
	}

	if s.eof {
		text := string(buf)
		s.nEofs.Add(1)
		for i, c := range cases {
			if c.Kind == CaseEOF {
				if s.rec.On() {
					s.rec.Record(trace.KindEOF, s.sid, int64(len(buf)), 0, true, tailString(buf, trace.TextCap), "")
				}
				s.mb.reset()
				return &MatchResult{Index: i, Case: c, Text: text, Eof: true}, nil, true
			}
		}
		readErr := s.readErr
		if s.rec.On() {
			aux := ""
			if readErr != nil {
				aux = readErr.Error()
			}
			s.rec.Record(trace.KindEOF, s.sid, int64(len(buf)), 0, false, tailString(buf, trace.TextCap), aux)
		}
		return &MatchResult{Index: -1, Text: text, Eof: true}, &ExpectError{
			Err:        ErrEOF,
			Name:       s.name,
			SID:        s.sid,
			Elapsed:    time.Since(op.start),
			BufferLen:  len(buf),
			BufferTail: tailString(buf, tailBytes),
			ReadErr:    readErr,
			Dump:       s.rec.Dump(dumpEvents),
		}, true
	}

	if !op.deadline.IsZero() && !now.Before(op.deadline) {
		text := string(buf)
		s.nTimeouts.Add(1)
		elapsed := time.Since(op.start)
		for i, c := range cases {
			if c.Kind == CaseTimeout {
				if s.rec.On() {
					s.rec.Record(trace.KindTimeout, s.sid, int64(len(buf)), int64(elapsed), true, tailString(buf, trace.TextCap), "")
				}
				return &MatchResult{Index: i, Case: c, Text: text, TimedOut: true}, nil, true
			}
		}
		if s.rec.On() {
			s.rec.Record(trace.KindTimeout, s.sid, int64(len(buf)), int64(elapsed), false, tailString(buf, trace.TextCap), "")
		}
		return &MatchResult{Index: -1, Text: text, TimedOut: true}, &ExpectError{
			Err:        ErrTimeout,
			Name:       s.name,
			SID:        s.sid,
			Elapsed:    elapsed,
			BufferLen:  len(buf),
			BufferTail: tailString(buf, tailBytes),
			Dump:       s.rec.Dump(dumpEvents),
		}, true
	}

	return nil, nil, false
}

// scanCases checks prepared cases in order against buf; it returns the
// winning index and how many buffer bytes the match consumes, or (-1, 0).
// Everything it runs is precompiled, so a wakeup that finds no match
// performs no allocation no matter how large the buffer is.
func scanCases(buf []byte, cases []Case, incremental bool) (int, int) {
	for i := range cases {
		if ok, n := scanOneCase(buf, &cases[i], incremental); ok {
			return i, n
		}
	}
	return -1, 0
}

// scanOneCase runs a single prepared case against buf, reporting whether
// it matched and how many bytes the match consumes. EOF/timeout cases
// never match here (they are resolved by the expect loop's state, not the
// buffer contents).
func scanOneCase(buf []byte, c *Case, incremental bool) (bool, int) {
	switch c.Kind {
	case CaseGlob:
		if incremental && c.inc != nil {
			if c.inc.Matched() {
				return true, len(buf)
			}
			return false, 0
		}
		if c.glob.Match(buf) {
			// Anchored semantics: the whole buffer is the match.
			return true, len(buf)
		}
	case CaseExact:
		if idx := bytes.Index(buf, c.lit); idx >= 0 {
			return true, idx + len(c.lit)
		}
	case CaseRegexp:
		if loc := c.re.FindIndex(buf); loc != nil {
			return true, loc[1]
		}
	}
	return false, 0
}

// scanCasesTraced is scanCases with the flight recorder watching: every
// pattern case tried on this wakeup leaves an attempt event carrying its
// verdict — the per-wakeup record behind the exp_internal "does X match
// pattern Y? yes/no" lines. Semantics are identical to scanCases.
func (s *Session) scanCasesTraced(buf []byte, cases []Case, incremental bool) (int, int) {
	for i := range cases {
		c := &cases[i]
		if c.Kind == CaseEOF || c.Kind == CaseTimeout {
			continue
		}
		ok, n := scanOneCase(buf, c, incremental)
		s.rec.RecordAttempt(s.sid, i, len(buf), ok, c.Pattern, buf)
		if ok {
			return i, n
		}
	}
	return -1, 0
}

// waitLocked blocks on the session condition for at most remaining
// (forever when remaining == 0, used for no-deadline waits). The caller
// holds s.mu.
func (s *Session) waitLocked(remaining time.Duration) {
	if remaining <= 0 {
		s.cond.Wait()
		return
	}
	stop := s.prof.Start(metrics.PhaseTimer)
	if s.rec.On() {
		s.rec.Record(trace.KindTimerArm, s.sid, int64(remaining), 0, false, "", "")
	}
	t := time.AfterFunc(remaining, func() {
		if s.rec.On() {
			s.rec.Record(trace.KindTimerFire, s.sid, 0, 0, false, "", "")
		}
		s.mu.Lock()
		// Locking before broadcasting guarantees the waiter is parked in
		// cond.Wait and cannot miss the wakeup.
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	stop()
	s.cond.Wait()
	stop = s.prof.Start(metrics.PhaseTimer)
	t.Stop()
	stop()
}
