// Package replay re-drives sessions byte-for-byte from their flight-
// recorder journals. A journal (trace.Journal) carries every read chunk,
// send, expect call (with its serialized case list), pattern attempt,
// and resolution with full payloads; the replay engine reconstructs the
// run against a virtual transport — core.NewManualSession, no child, no
// goroutines, no wall clock — reproducing the exact chunk boundaries and
// wakeup structure, then diffs the replay's own journal against the
// original's observables. A clean replay proves the recorded dialogue is
// deterministic; a divergence pins the first event where the engine (or
// a corrupted journal) disagrees with history.
//
// The replay clock is virtual: recorded timeouts resolve by stepping the
// expect op with the clock forced past its deadline, so replaying a
// 10-second timeout costs microseconds.
//
// Fidelity covers every expect op, the engine's core loop: an Expect's,
// and each session's op of a multi-session ExpectAny, whose losers end
// unresolved and replay as dropped. Interact records no match events, so
// an interacted session replays as a read/write stream only.
package replay

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Options parameterize a replay run. Matcher and MatchMax must mirror the
// original session's creation-time config (mid-run match_max changes are
// journaled as config events and reapplied automatically).
type Options struct {
	Matcher  core.MatcherMode
	MatchMax int
	// Name overrides the session name (defaults to the journal's spawn
	// event name, else "replay").
	Name string
}

// Divergence is one detected disagreement between the journal and the
// replayed engine, anchored at the original journal's sequence number.
type Divergence struct {
	Seq    uint64 `json:"seq"`
	Detail string `json:"detail"`
}

// Report is the outcome of replaying one session.
type Report struct {
	SID  int32  `json:"sid"`
	Name string `json:"name"`
	// Ops/Reads/Writes/Scans count the driven actions; Compared counts
	// observable events diffed against the original.
	Ops      int `json:"ops"`
	Reads    int `json:"reads"`
	Writes   int `json:"writes"`
	Scans    int `json:"scans"`
	Compared int `json:"compared"`
	// Unresolved marks a journal that ends mid-expect (a crashed or
	// abandoned op) — legal, not a divergence.
	Unresolved  bool         `json:"unresolved,omitempty"`
	Divergences []Divergence `json:"divergences,omitempty"`
	// ReplayJournal is the replay run's own journal (normalized
	// comparison uses Normalize on both sides; this is the raw stream).
	ReplayJournal []byte `json:"-"`
}

// Clean reports whether the replay reproduced the journal exactly.
func (r *Report) Clean() bool { return len(r.Divergences) == 0 }

func (r *Report) String() string {
	state := "clean"
	if !r.Clean() {
		state = fmt.Sprintf("%d divergences (first at seq %d: %s)",
			len(r.Divergences), r.Divergences[0].Seq, r.Divergences[0].Detail)
	}
	return fmt.Sprintf("replay sid %d (%s): %d ops, %d reads, %d writes, %d scans, %d events compared: %s",
		r.SID, r.Name, r.Ops, r.Reads, r.Writes, r.Scans, r.Compared, state)
}

// SIDs lists the distinct session ids present in a parsed journal,
// ascending, ignoring the engine-global -1.
func SIDs(events []trace.EventJSON) []int32 {
	seen := map[int32]bool{}
	for i := range events {
		if events[i].SID >= 0 {
			seen[events[i].SID] = true
		}
	}
	out := make([]int32, 0, len(seen))
	for sid := range seen {
		out = append(out, sid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RunJournal parses a JSONL journal and replays every session in it.
// Parse errors are fatal — a journal that does not parse strictly must
// never feed a silently shortened replay.
func RunJournal(journal []byte, opt Options) ([]*Report, error) {
	events, err := trace.ParseJSONL(journal)
	if err != nil {
		return nil, err
	}
	var reports []*Report
	for _, sid := range SIDs(events) {
		rep, err := Run(events, sid, opt)
		if err != nil {
			return reports, fmt.Errorf("replay sid %d: %w", sid, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// observable says which event kinds constitute the replay-comparable
// surface. Timer events depend on wall-clock scheduling, spawn/exit on
// process identity, eval on script-side activity, and fault events on the
// injection transport — none are reproduced by (or meaningful to) a
// byte-stream replay.
func observable(k trace.Kind) bool {
	switch k {
	case trace.KindRead, trace.KindWrite, trace.KindExpect, trace.KindAttempt,
		trace.KindMatch, trace.KindTimeout, trace.KindEOF, trace.KindForget,
		trace.KindConfig:
		return true
	}
	return false
}

// Normalize filters events to one session's observable surface and zeroes
// the clock-dependent fields (seq, timestamps, timeout elapsed), leaving
// exactly the bytes two equivalent runs must agree on. The returned seqs
// slice carries each normalized event's original sequence number for
// divergence anchoring.
func Normalize(events []trace.EventJSON, sid int32) ([]trace.EventJSON, []uint64) {
	var out []trace.EventJSON
	var seqs []uint64
	for _, e := range events {
		if e.SID != sid {
			continue
		}
		k, ok := e.KindID()
		if !ok || !observable(k) {
			continue
		}
		seqs = append(seqs, e.Seq)
		e.Seq, e.TNs = 0, 0
		if k == trace.KindTimeout {
			e.B = 0 // elapsed wall time
		}
		out = append(out, e)
	}
	return out, seqs
}

// step kinds: the journal's driving alphabet after scan grouping.
type stepKind int

const (
	stepRead stepKind = iota
	stepWrite
	stepExpect
	stepScan // one wakeup's run of attempt events
	stepMatch
	stepTimeout
	stepEOF
	stepConfig
)

type step struct {
	kind stepKind
	ev   trace.EventJSON
}

// buildSteps tokenizes one session's events into driving steps.
// Consecutive attempt events form one scan (one wakeup) until the case
// index resets — stepLocked tries cases in ascending order, so an index
// that fails to increase marks the next wakeup.
func buildSteps(events []trace.EventJSON, sid int32) []step {
	var steps []step
	inScan := false
	lastIdx := int64(-1)
	for _, e := range events {
		if e.SID != sid {
			continue
		}
		k, ok := e.KindID()
		if !ok {
			continue
		}
		if k == trace.KindAttempt {
			if !inScan || e.A <= lastIdx {
				steps = append(steps, step{stepScan, e})
				inScan = true
			}
			lastIdx = e.A
			continue
		}
		inScan, lastIdx = false, -1
		switch k {
		case trace.KindRead:
			steps = append(steps, step{stepRead, e})
		case trace.KindWrite:
			steps = append(steps, step{stepWrite, e})
		case trace.KindExpect:
			steps = append(steps, step{stepExpect, e})
		case trace.KindMatch:
			steps = append(steps, step{stepMatch, e})
		case trace.KindTimeout:
			steps = append(steps, step{stepTimeout, e})
		case trace.KindEOF:
			steps = append(steps, step{stepEOF, e})
		case trace.KindConfig:
			steps = append(steps, step{stepConfig, e})
		}
	}
	return steps
}

// payload returns an event's full byte payload, failing loudly when the
// journal lacks it (a bounded ring dump is not a replayable journal).
func payload(e *trace.EventJSON) ([]byte, error) {
	if e.Data != nil {
		return e.Data, nil
	}
	if e.A == 0 {
		return nil, nil
	}
	return nil, fmt.Errorf("event seq %d (%s): %d-byte payload missing — not a full-payload journal", e.Seq, e.Kind, e.A)
}

// eofErr reconstructs the read error an eof event recorded (nil for a
// clean close).
func eofErr(e *trace.EventJSON) error {
	if e.Aux == "" {
		return nil
	}
	return errors.New(e.Aux)
}

// Run replays one session from a parsed journal and diffs the result.
// An error means the journal is not replayable at all (missing payloads,
// undecodable case lists); engine disagreements land in the report's
// Divergences instead.
func Run(events []trace.EventJSON, sid int32, opt Options) (*Report, error) {
	name := opt.Name
	for _, e := range events {
		if e.SID == sid && e.Kind == trace.KindSpawn.String() && name == "" {
			name = e.Text
		}
	}
	if name == "" {
		name = "replay"
	}

	rec := trace.New(0)
	jrn := trace.NewJournal()
	rec.SetJournal(jrn)
	cfg := &core.Config{
		Matcher:  opt.Matcher,
		MatchMax: opt.MatchMax,
		Rec:      rec,
		SID:      sid,
	}
	s := core.NewManualSession(cfg, name)
	defer s.Close()

	rep := &Report{SID: sid, Name: name}
	diverge := func(seq uint64, format string, args ...any) {
		rep.Divergences = append(rep.Divergences, Divergence{Seq: seq, Detail: fmt.Sprintf(format, args...)})
	}

	steps := buildSteps(events, sid)
	var m *core.ManualExpect

	// resolved checks a final step's verdict against the recorded
	// disposition; the byte-level diff below catches the finer fields.
	resolved := func(st step, res *core.MatchResult, err error, done bool) {
		if !done {
			diverge(st.ev.Seq, "original resolved with %s; replay kept waiting", st.ev.Kind)
			return
		}
		switch st.kind {
		case stepMatch:
			if res == nil || err != nil || res.TimedOut || res.Eof {
				diverge(st.ev.Seq, "original matched case %d; replay resolved otherwise (res=%+v err=%v)", st.ev.A, res, err)
			} else if int64(res.Index) != st.ev.A {
				diverge(st.ev.Seq, "original matched case %d; replay matched case %d", st.ev.A, res.Index)
			}
		case stepTimeout:
			if res == nil || !res.TimedOut {
				diverge(st.ev.Seq, "original timed out; replay resolved otherwise (res=%+v err=%v)", res, err)
			}
		case stepEOF:
			if res == nil || !res.Eof {
				diverge(st.ev.Seq, "original hit EOF; replay resolved otherwise (res=%+v err=%v)", res, err)
			}
		}
	}

drive:
	for i := 0; i < len(steps); i++ {
		st := steps[i]
		if len(rep.Divergences) > 0 {
			break // state after a divergence is not history; stop driving
		}
		switch st.kind {
		case stepConfig:
			if st.ev.Text == "match_max" {
				s.SetMatchMax(int(st.ev.A))
			}
		case stepRead:
			p, err := payload(&st.ev)
			if err != nil {
				return rep, err
			}
			rep.Reads++
			s.Feed(p)
		case stepWrite:
			p, err := payload(&st.ev)
			if err != nil {
				return rep, err
			}
			rep.Writes++
			if err := s.SendBytes(p); err != nil {
				return rep, fmt.Errorf("replay send: %w", err)
			}
		case stepExpect:
			// A still-open op here is an abandoned one (an ExpectAny
			// loser); the original dropped it without resolution.
			cases, err := core.DecodeCases(st.ev.Data)
			if err != nil {
				return rep, fmt.Errorf("event seq %d: %w (full-payload journal required)", st.ev.Seq, err)
			}
			rep.Ops++
			m = s.BeginExpect(time.Duration(st.ev.B), cases...)
		case stepScan:
			if m == nil {
				diverge(st.ev.Seq, "pattern attempts outside any expect call")
				break drive
			}
			rep.Scans++
			var next stepKind = -1
			if i+1 < len(steps) {
				next = steps[i+1].kind
			}
			switch next {
			case stepTimeout:
				// This scan is the timeout wakeup: one step with the
				// clock forced past the deadline scans and then resolves.
				i++
				res, err, done := m.StepDeadline()
				resolved(steps[i], res, err, done)
				m = nil
			case stepEOF:
				i++
				s.FeedEOF(eofErr(&steps[i].ev))
				res, err, done := m.Step()
				resolved(steps[i], res, err, done)
				m = nil
			case stepMatch:
				i++
				res, err, done := m.Step()
				resolved(steps[i], res, err, done)
				m = nil
			default:
				if res, err, done := m.Step(); done {
					diverge(st.ev.Seq, "replay resolved early (res=%+v err=%v); original kept waiting", res, err)
					m = nil
				}
			}
		case stepMatch, stepTimeout, stepEOF:
			// Resolution without a preceding scan: an op with no pattern
			// cases (pure eof/timeout arms) leaves no attempt events.
			if m == nil {
				diverge(st.ev.Seq, "%s outside any expect call", st.ev.Kind)
				break drive
			}
			var res *core.MatchResult
			var err error
			var done bool
			switch st.kind {
			case stepTimeout:
				res, err, done = m.StepDeadline()
			case stepEOF:
				s.FeedEOF(eofErr(&st.ev))
				res, err, done = m.Step()
			default:
				res, err, done = m.Step()
			}
			resolved(st, res, err, done)
			m = nil
		}
	}
	rep.Unresolved = m != nil

	// Byte-level diff: the replay's own journal against the original's
	// observable surface. This is where a corrupted payload, a wrong
	// consumed count, or a flipped attempt verdict surfaces even when the
	// driving structure held.
	rep.ReplayJournal = jrn.Bytes()
	replayEvents, err := trace.ParseJSONL(rep.ReplayJournal)
	if err != nil {
		return rep, fmt.Errorf("replay journal did not parse back: %w", err)
	}
	orig, seqs := Normalize(events, sid)
	got, _ := Normalize(replayEvents, sid)
	n := len(orig)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		a := trace.MarshalJSONL(orig[i : i+1])
		b := trace.MarshalJSONL(got[i : i+1])
		if !bytes.Equal(a, b) {
			diverge(seqs[i], "observable %d differs:\n  original: %s  replay:   %s", i, a, b)
			break
		}
	}
	rep.Compared = n
	if len(rep.Divergences) == 0 && len(orig) != len(got) {
		seq := uint64(0)
		if len(orig) > 0 {
			seq = seqs[len(orig)-1]
		}
		diverge(seq, "original has %d observable events, replay produced %d", len(orig), len(got))
	}
	return rep, nil
}
