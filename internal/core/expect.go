package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"slices"
	"sync"
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
//
// The call makes one attempt itself. If that does not resolve it, the op
// parks on the session in the same critical section, and whatever changes
// the session resolves it: the ingest side (pump or shard loop) after it
// applies input or EOF, or the op's own timer, which at the deadline
// unparks the op and leaves its last step to this goroutine. The caller
// sleeps until then and wakes exactly once.
func (s *Session) ExpectTimeout(d time.Duration, cases ...Case) (*MatchResult, error) {
	op := s.newExpectOp(d, cases)
	s.mu.Lock()
	// Ops parked earlier get the buffer first (FIFO among concurrent calls).
	s.stepParkedLocked()
	res, err, done := op.stepLocked(time.Now())
	if !done {
		if s.abandoned {
			res, err, done = nil, ErrClosed, true
		} else {
			op.parkLocked()
		}
	}
	s.mu.Unlock()
	if done {
		return res, err
	}
	op.wake.Wait()
	if op.expired {
		// The timer unparked the op at its deadline. Its last step runs
		// here rather than on the timer's fresh goroutine, which would
		// grow its stack inside the attempt; it is judged at no earlier
		// instant than the deadline, so it always resolves.
		s.mu.Lock()
		now := time.Now()
		if now.Before(op.deadline) {
			now = op.deadline
		}
		res, err, _ = op.stepLocked(now)
		s.mu.Unlock()
		return res, err
	}
	if op.timer != nil {
		// Stopped by the caller, which armed it, rather than by the
		// resolver: that measured cheaper on a pump round trip. A fire
		// that races this finds the op no longer parked.
		stop := s.prof.Start(metrics.PhaseTimer)
		op.timer.Stop()
		stop()
	}
	if s.prof != nil && !op.readAt.IsZero() {
		s.prof.Observe(metrics.HistReadToWakeup, time.Since(op.readAt))
	}
	return op.res, op.err
}

// expectOp is one in-flight Expect call in step form. Every attempt runs
// stepLocked under s.mu, whoever makes it: the caller at admission and
// once its timer has expired the op, the ingest side after input or EOF,
// or a replay driving a ManualExpect.
type expectOp struct {
	s           *Session
	cases       []Case
	start       time.Time
	deadline    time.Time // zero = wait forever
	incremental bool

	// Lazily initialized by the first step (under s.mu): incremental NFA
	// construction and the feed high-water mark.
	inited   bool
	fed      int64 // totalSeen high-water mark already fed to matchers
	seenMark int64 // totalSeen at the op's latest step

	// Parking state, written under s.mu once the admission attempt has
	// not resolved the op. The resolver sets the outcome (res, err) and
	// readAt, the arrival of the chunk whose ingest step resolved the op
	// (the caller prices its wakeup from it, HistReadToWakeup), before it
	// releases wake; the caller reads them after wake.Wait returns. An
	// expired op carries no outcome: its timer unparked it at the
	// deadline, and the caller takes the last step.
	timer   *time.Timer // nil without a deadline
	res     *MatchResult
	err     error
	readAt  time.Time
	expired bool
	wake    sync.WaitGroup
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

// EncodeCases serializes an expect case list for the journal, in the
// portable form a checkpoint also uses (compiled forms are rebuilt on
// decode).
func EncodeCases(cases []Case) []byte {
	b, _ := json.Marshal(appendCaseSpecs(make([]CaseSpec, 0, len(cases)), cases))
	return b
}

// DecodeCases inverts EncodeCases, recompiling regexp cases.
func DecodeCases(data []byte) ([]Case, error) {
	var specs []CaseSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("core: bad case list %q: %w", data, err)
	}
	return casesFromSpecs(specs)
}

// appendCaseSpecs appends the portable form of each case to dst: the one
// conversion behind the journal's case lists and a checkpoint's pending
// ops.
func appendCaseSpecs(dst []CaseSpec, cases []Case) []CaseSpec {
	for _, c := range cases {
		dst = append(dst, CaseSpec{Kind: int(c.Kind), Pattern: c.Pattern})
	}
	return dst
}

// casesFromSpecs rebuilds cases from their portable form, recompiling
// regexp cases. Shared by journal decode and checkpoint restore.
func casesFromSpecs(specs []CaseSpec) ([]Case, error) {
	out := make([]Case, len(specs))
	for i, cs := range specs {
		c := Case{Kind: CaseKind(cs.Kind), Pattern: cs.Pattern}
		var err error
		switch c.Kind {
		case CaseGlob, CaseExact:
		case CaseRegexp:
			c.re, err = pattern.CompileRegexp(c.Pattern)
		case CaseEOF, CaseTimeout:
			c.Pattern = ""
		default:
			err = fmt.Errorf("unknown case kind %d", cs.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("core: case %d: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}

// ManualExpect is an Expect call driven by hand: it never parks, and no
// ingest side or timer steps it. The replay engine uses it to reproduce a
// journaled run's exact wakeup structure — Feed a chunk, Step a scan —
// and the checkpoint path uses it to resume a restored pending op. It
// must not be mixed with a concurrent Expect on the same session.
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
	}
	op.seenMark = s.totalSeen
	cases := op.cases

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
		s.prof.Observe(metrics.HistWakeupToMatch, time.Since(now))
	}
	// buf may alias adopted backing that consume and reset release to its
	// pool, so everything that reads it runs first.
	switch {
	case idx >= 0:
		return op.matchLocked(buf, idx, consumed), nil, true
	case s.eof:
		res, err := op.eofLocked(buf)
		return res, err, true
	case !op.deadline.IsZero() && !now.Before(op.deadline):
		res, err := op.timeoutLocked(buf)
		return res, err, true
	}
	return nil, nil, false
}

// The three ways an attempt resolves live outside stepLocked, so the
// frame every attempt pays holds only the scan. A pump's first attempt
// then fits the goroutine's starting stack instead of growing it.

// matchLocked resolves the op with case idx, whose match covers the first
// consumed bytes of buf, and removes those bytes from the buffer.
func (op *expectOp) matchLocked(buf []byte, idx, consumed int) *MatchResult {
	s := op.s
	text := string(buf[:consumed])
	if s.rec.On() {
		s.rec.RecordBytes(trace.KindMatch, s.sid, int64(idx), int64(consumed), true, buf[:consumed], nil)
	}
	s.mb.consume(consumed)
	s.nMatches.Add(1)
	return &MatchResult{Index: idx, Case: op.cases[idx], Text: text}
}

// eofLocked resolves the op at end of stream: with its EOF case if it
// has one, with ErrEOF otherwise.
func (op *expectOp) eofLocked(buf []byte) (*MatchResult, error) {
	s := op.s
	text := string(buf)
	s.nEofs.Add(1)
	for i, c := range op.cases {
		if c.Kind == CaseEOF {
			if s.rec.On() {
				s.rec.Record(trace.KindEOF, s.sid, int64(len(buf)), 0, true, tailString(buf, trace.TextCap), "")
			}
			s.mb.reset()
			return &MatchResult{Index: i, Case: c, Text: text, Eof: true}, nil
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
	}
}

// timeoutLocked resolves the op at its deadline: with its timeout case if
// it has one, with ErrTimeout otherwise.
func (op *expectOp) timeoutLocked(buf []byte) (*MatchResult, error) {
	s := op.s
	text := string(buf)
	s.nTimeouts.Add(1)
	elapsed := time.Since(op.start)
	for i, c := range op.cases {
		if c.Kind == CaseTimeout {
			if s.rec.On() {
				s.rec.Record(trace.KindTimeout, s.sid, int64(len(buf)), int64(elapsed), true, tailString(buf, trace.TextCap), "")
			}
			return &MatchResult{Index: i, Case: c, Text: text, TimedOut: true}, nil
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
	}
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

// parkLocked makes the op wait on its session: it joins the parked list,
// and its timer is armed when it has a deadline. The caller holds s.mu.
func (op *expectOp) parkLocked() {
	s := op.s
	op.wake.Add(1)
	s.parked = append(s.parked, op)
	if op.deadline.IsZero() {
		return
	}
	stop := s.prof.Start(metrics.PhaseTimer)
	remaining := time.Until(op.deadline)
	if s.rec.On() {
		s.rec.Record(trace.KindTimerArm, s.sid, int64(remaining), 0, false, "", "")
	}
	op.timer = time.AfterFunc(remaining, op.fire)
	stop()
}

// fire is the op's timer: at the deadline it unparks the op, so no
// ingest step can resolve it any more, and wakes the caller, which takes
// the last step (ExpectTimeout). That step resolves the timeout unless a
// match or EOF is buffered by then.
func (op *expectOp) fire() {
	s := op.s
	s.mu.Lock()
	defer s.mu.Unlock()
	i := slices.Index(s.parked, op)
	if i < 0 {
		return // resolved by ingest while this callback was starting
	}
	if s.rec.On() {
		s.rec.Record(trace.KindTimerFire, s.sid, 0, 0, false, "", "")
	}
	s.parked = slices.Delete(s.parked, i, i+1)
	op.expired = true
	op.wake.Done()
}

// resolveLocked hands an op that has left the parked list its outcome
// and wakes its caller. Each op is woken once, by resolveLocked or fire,
// because both run under s.mu and only for an op still parked.
func (op *expectOp) resolveLocked(res *MatchResult, err error) {
	op.res, op.err = res, err
	op.wake.Done()
}

// stepParkedLocked is the ingest side's attempt: every parked op, oldest
// first, is stepped once against the buffer as it now stands, and those
// that complete are resolved. The caller holds s.mu.
func (s *Session) stepParkedLocked() {
	if len(s.parked) == 0 {
		return
	}
	now := time.Now()
	keep := s.parked[:0]
	for _, op := range s.parked {
		fresh := s.totalSeen > op.seenMark
		res, err, done := op.stepLocked(now)
		if !done {
			keep = append(keep, op)
			continue
		}
		if fresh {
			op.readAt = s.lastRead
		}
		op.resolveLocked(res, err)
	}
	clear(s.parked[len(keep):])
	s.parked = keep
}

// stepParked is stepParkedLocked for an ingest side that does not hold
// s.mu.
func (s *Session) stepParked() {
	s.mu.Lock()
	s.stepParkedLocked()
	s.mu.Unlock()
}

// abandon fails every parked op with ErrClosed and marks the session so
// that a later Expect fails at once: nothing will ingest for it again. A
// stopping shard calls it for each session it still owns at its forced
// exit; it returns how many ops it failed.
func (s *Session) abandon() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.abandoned = true
	n := len(s.parked)
	for _, op := range s.parked {
		op.resolveLocked(nil, ErrClosed)
	}
	clear(s.parked)
	s.parked = nil
	return n
}
