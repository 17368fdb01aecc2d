// Package trace is the engine's flight recorder: a fixed-size ring of
// structured events capturing everything the paper's §3.3 debugging aids
// let a user watch — every chunk a child produces, every pattern tried
// against the buffer and its verdict, spawns and exits, timers arming and
// firing, match_max forgetting, eval dispatches, injected faults.
//
// The recorder exists because the evidence behind a failure (a 10-second
// timeout, an EOF surprise, a conformance divergence) is otherwise gone by
// the time the failure is reported: the bytes were consumed, the pattern
// attempts left no residue. With the ring armed, the engine can attach the
// last N events — a bounded, structured flight recording — to every such
// report.
//
// Overhead contract:
//
//   - nil recorder or disabled mode: one nil check plus one atomic load on
//     every instrumentation site, zero allocations. Call sites guard event
//     construction with On(), so no argument marshalling happens either.
//   - recording: events are copied into preallocated fixed-size slots under
//     a mutex; steady state allocates nothing.
//   - diagnostics (the exp_internal rendering): formatted output per event;
//     allocation is accepted, this mode is for humans watching a run.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
)

// Kind classifies one flight-recorder event.
type Kind uint8

// Event kinds. The A/B/Flag/Text/Aux fields of Event are kind-specific;
// see the constructors in the core engine for the exact conventions.
const (
	// KindSpawn: a process was spawned. A=pid, Text=program name, Aux=transport.
	KindSpawn Kind = iota
	// KindExit: a session was closed/removed. Text=program name.
	KindExit
	// KindRead: a chunk of child output arrived. A=bytes, B=total seen,
	// Text=preview.
	KindRead
	// KindWrite: bytes were sent to the child. A=bytes, Text=preview.
	KindWrite
	// KindExpect: an expect call began. A=case count, B=timeout (ns; -1
	// means forever).
	KindExpect
	// KindAttempt: one pattern was tried against the buffer on one wakeup.
	// A=case index, B=buffer length, Flag=matched, Text=pattern,
	// Aux=buffer preview.
	KindAttempt
	// KindMatch: an expect call completed with a match. A=case index,
	// B=consumed bytes, Text=matched-text preview.
	KindMatch
	// KindTimeout: an expect call gave up. A=unmatched buffer length,
	// B=elapsed ns, Text=buffer tail.
	KindTimeout
	// KindEOF: the child closed its output. A=unmatched buffer length,
	// Text=buffer tail, Aux=read error (if not a clean EOF).
	KindEOF
	// KindEval: a Tcl command was dispatched. A=duration ns, B=depth,
	// Text=command name.
	KindEval
	// KindTimerArm: an expect timeout timer was armed. A=duration ns.
	KindTimerArm
	// KindTimerFire: an armed timer fired before a match.
	KindTimerFire
	// KindForget: match_max pushed bytes out of the buffer. A=bytes
	// forgotten now, B=total forgotten.
	KindForget
	// KindFault: the fault-injection transport perturbed the stream.
	// Text=fault label.
	KindFault
	// KindConfig: a session knob changed mid-run (match_max, …). A=new
	// value, Text=knob name. Journaled so replay reproduces the semantics
	// the knob controls.
	KindConfig

	numKinds
)

var kindNames = [numKinds]string{
	"spawn", "exit", "read", "write", "expect", "attempt", "match",
	"timeout", "eof", "eval", "timer-arm", "timer-fire", "forget", "fault",
	"config",
}

func (k Kind) String() string {
	if k >= numKinds {
		return fmt.Sprintf("kind-%d", int(k))
	}
	return kindNames[k]
}

// KindFromString inverts Kind.String (used by dump parsing).
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Preview bounds. Event payloads are previews by design: the recorder is a
// flight recorder, not a transcript — bounded memory, bounded dump size.
const (
	// TextCap bounds the primary payload (chunk preview, pattern text, …).
	TextCap = 64
	// AuxCap bounds the secondary payload (buffer preview on attempts, …).
	AuxCap = 48
)

// Event is one fixed-size flight-recorder slot. All fields are inline (no
// pointers), so recording an event is a copy into the ring and the ring's
// memory use is capacity × sizeof(Event), forever.
type Event struct {
	// Seq is the 1-based global sequence number (monotonic, never wraps;
	// the ring holding only the last events is what wraps).
	Seq uint64
	// At is nanoseconds since the recorder was created (monotonic clock).
	At int64
	// Kind classifies the event; A, B, Flag, Text, Aux are kind-specific.
	Kind Kind
	// SID is the engine spawn id the event belongs to (-1 when none).
	SID  int32
	A    int64
	B    int64
	Flag bool

	textLen uint8
	auxLen  uint8
	text    [TextCap]byte
	aux     [AuxCap]byte
}

// Text returns the primary payload preview.
func (e *Event) Text() string { return string(e.text[:e.textLen]) }

// Aux returns the secondary payload preview.
func (e *Event) Aux() string { return string(e.aux[:e.auxLen]) }

// setText/setAux copy a bounded preview into the fixed slot. They take
// strings and byte slices without allocating (the copy target is inline).
func (e *Event) setText(s string) {
	n := copy(e.text[:], s)
	e.textLen = uint8(n)
}

func (e *Event) setTextBytes(b []byte) {
	n := copy(e.text[:], b)
	e.textLen = uint8(n)
}

func (e *Event) setAux(s string) {
	n := copy(e.aux[:], s)
	e.auxLen = uint8(n)
}

func (e *Event) setAuxBytes(b []byte) {
	n := copy(e.aux[:], b)
	e.auxLen = uint8(n)
}

// DefaultCapacity is the ring size engines arm by default: enough to hold
// the full pattern-attempt history of a stuck expect loop (hundreds of
// wakeups) while keeping the resident cost around a hundred kilobytes.
const DefaultCapacity = 512

// Recorder is the flight recorder: a bounded ring of events plus an
// optional live diagnostics rendering (the exp_internal surface) plus an
// optional durable journal (the replay surface).
//
// The mode word packs both knobs into one atomic so the disabled fast path
// is a single load: 0 means fully off; otherwise the low bit arms ring
// recording and the upper bits carry the diagnostics level (0 = silent
// ring-only flight recording, 1 = dialogue diagnostics, 2 = verbose).
// A nil *Recorder is a valid no-op sink everywhere.
type Recorder struct {
	mode atomic.Int32
	// watched is true while an eval event has a consumer beyond the ring
	// (see Watched). It is written only under mu.
	watched atomic.Bool
	// jrn is the durable journal sink (nil = ring-only). Kept out of the
	// mode word so Journaling() stays one pointer load for the call sites
	// that build full payloads only when a journal will keep them.
	jrn atomic.Pointer[Journal]
	// epoch is the clock.Now reading at creation; Event.At counts from it.
	epoch int64

	mu   sync.Mutex
	ring []Event
	next uint64 // total events ever recorded; ring index = next % len(ring)
	diag io.Writer

	// taps are live event subscribers (the /debug/trace streaming surface);
	// tapScratch is the shared line-render buffer. Both guarded by mu; see
	// tap.go for the never-block fan-out contract.
	taps       []*Tap
	tapScratch []byte
}

// New builds a recorder with the given ring capacity (DefaultCapacity when
// n <= 0). The recorder starts disabled; arm it with SetRecording or
// SetDiag.
func New(n int) *Recorder {
	if n <= 0 {
		n = DefaultCapacity
	}
	return &Recorder{ring: make([]Event, n), epoch: clock.Now()}
}

const recordBit = 1

// On reports whether the recorder is armed at all. This is the guard every
// instrumentation site checks before composing an event: nil check plus one
// atomic load, no allocation.
func (r *Recorder) On() bool {
	return r != nil && r.mode.Load() != 0
}

// Recording reports whether ring recording is armed.
func (r *Recorder) Recording() bool {
	return r != nil && r.mode.Load()&recordBit != 0
}

// SetRecording arms or disarms ring recording, preserving the diagnostics
// level. Disarming with diagnostics off returns the recorder to the
// zero-overhead disabled state.
func (r *Recorder) SetRecording(on bool) {
	if r == nil {
		return
	}
	for {
		old := r.mode.Load()
		var next int32
		if on {
			next = old | recordBit
		} else {
			next = old &^ recordBit
		}
		if r.mode.CompareAndSwap(old, next) {
			return
		}
	}
}

// DiagLevel returns the live-diagnostics level (0 = off).
func (r *Recorder) DiagLevel() int {
	if r == nil {
		return 0
	}
	return int(r.mode.Load() >> 1)
}

// SetDiag sets the live-diagnostics level and sink — the exp_internal
// surface. Level 0 turns rendering off (ring recording, if armed, keeps
// running); level 1 renders the dialogue-visible events (received chunks,
// pattern attempts and verdicts, spawns, matches, timeouts, EOFs); level 2
// additionally renders sends, eval dispatches, timers, forgets, and faults.
// Arming diagnostics also arms ring recording: a run being watched is a run
// worth having a flight recording of.
func (r *Recorder) SetDiag(level int, w io.Writer) {
	if r == nil {
		return
	}
	if level < 0 {
		level = 0
	}
	if level > 2 {
		level = 2
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.diag = w
	for {
		old := r.mode.Load()
		next := int32(level<<1) | (old & recordBit)
		if level > 0 {
			next |= recordBit
		}
		if r.mode.CompareAndSwap(old, next) {
			break
		}
	}
	r.rewatchLocked()
}

// Watched reports whether an eval event has a consumer beyond the ring:
// diagnostics at level 2, which render eval dispatches, or a tap that
// admits SID -1 events (an unfiltered /debug/trace). A tap filtered to
// one session never receives eval events, which carry SID -1, and a
// journal does not count: replay does not observe eval events. The
// engine reports every Tcl dispatch while this holds and a seeded sample
// otherwise. It is one atomic load.
func (r *Recorder) Watched() bool {
	return r != nil && r.watched.Load()
}

// rewatchLocked recomputes watched after the diagnostics level or the
// tap set changed. Caller holds r.mu.
func (r *Recorder) rewatchLocked() {
	w := r.mode.Load()>>1 >= 2
	for _, t := range r.taps {
		w = w || t.sid < 0
	}
	r.watched.Store(w)
}

// SetJournal attaches (or, with nil, detaches) a durable journal: from now
// on every recorded event is also appended to j as one JSON line carrying
// the FULL payload (the ring slot keeps only its bounded preview). A
// journal implies ring recording — replay needs the event stream, and a
// run worth journaling is a run worth a flight recording of — so attaching
// arms the record bit. Detaching leaves recording armed.
func (r *Recorder) SetJournal(j *Journal) {
	if r == nil {
		return
	}
	r.jrn.Store(j)
	if j != nil {
		r.SetRecording(true)
	}
}

// Journaling reports whether a journal sink is attached. Call sites that
// must build a full payload (an expect call serializing its case list)
// check this so ring-only runs keep their allocation profile.
func (r *Recorder) Journaling() bool {
	return r != nil && r.jrn.Load() != nil
}

// Journal returns the attached journal (nil when ring-only).
func (r *Recorder) Journal() *Journal {
	if r == nil {
		return nil
	}
	return r.jrn.Load()
}

// Reset drops all buffered events (mode is unchanged).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.next = 0
	r.mu.Unlock()
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Total returns how many events have ever been recorded (including those
// the ring has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Len returns how many events are currently buffered.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lenLocked()
}

func (r *Recorder) lenLocked() int {
	if r.next > uint64(len(r.ring)) {
		return len(r.ring)
	}
	return int(r.next)
}

// record is the shared slow path: copy one event, stamped at now (a
// clock.Now reading), into the ring (if armed), append it to the journal
// (if attached), and render it (if the diagnostics level shows its kind).
// Callers have already checked On().
//
// data is the full byte payload destined for the journal only; when nil,
// textB (the uncapped byte payload, if any) stands in for it, so journaled
// reads/writes/matches keep every byte while the ring slot keeps the
// bounded preview.
func (r *Recorder) record(now int64, k Kind, sid int32, a, b int64, flag bool, text string, textB []byte, aux string, auxB []byte, data []byte) {
	mode := r.mode.Load()
	if mode == 0 {
		return
	}
	var ev Event
	ev.At = now - r.epoch
	ev.Kind = k
	ev.SID = sid
	ev.A, ev.B, ev.Flag = a, b, flag
	if textB != nil {
		ev.setTextBytes(textB)
	} else {
		ev.setText(text)
	}
	if auxB != nil {
		ev.setAuxBytes(auxB)
	} else {
		ev.setAux(aux)
	}
	jrn := r.jrn.Load()

	r.mu.Lock()
	if mode&recordBit != 0 {
		r.next++
		ev.Seq = r.next
		r.ring[(r.next-1)%uint64(len(r.ring))] = ev
		payload := data
		if payload == nil {
			payload = textB
		}
		if jrn != nil {
			// Append inside the lock so journal order is seq order. Full
			// payloads ride in Data ([]byte → base64) because JSON string
			// escaping is lossy for arbitrary bytes.
			jrn.appendEvent(&ev, payload)
		}
		if len(r.taps) > 0 {
			r.fanOutLocked(&ev, payload)
		}
	}
	diag, level := r.diag, int(mode>>1)
	if diag != nil && kindVisible(k, level) {
		// Render inside the lock so concurrent writers (pump goroutine vs
		// script goroutine) interleave whole lines, never fragments.
		renderEvent(diag, &ev)
	}
	r.mu.Unlock()
}

// Record logs an event with string payloads.
func (r *Recorder) Record(k Kind, sid int32, a, b int64, flag bool, text, aux string) {
	if !r.On() {
		return
	}
	r.record(clock.Now(), k, sid, a, b, flag, text, nil, aux, nil, nil)
}

// RecordAt is Record for a caller that has just read the clock itself:
// the event is stamped with now, a clock.Now reading, instead of a second
// read. The engine stamps each eval event with the reading that ended the
// dispatch it reports.
func (r *Recorder) RecordAt(now int64, k Kind, sid int32, a, b int64, flag bool, text, aux string) {
	if !r.On() {
		return
	}
	r.record(now, k, sid, a, b, flag, text, nil, aux, nil, nil)
}

// RecordBytes logs an event whose payloads are byte slices (chunk
// previews); the slices are copied, never retained. When a journal is
// attached the text payload is journaled in full, not preview-capped.
func (r *Recorder) RecordBytes(k Kind, sid int32, a, b int64, flag bool, text, aux []byte) {
	if !r.On() {
		return
	}
	r.record(clock.Now(), k, sid, a, b, flag, "", text, "", aux, nil)
}

// RecordData logs an event carrying an explicit full payload for the
// journal (an expect call's serialized case list, say) alongside the usual
// bounded previews. Ring-only recorders just drop data.
func (r *Recorder) RecordData(k Kind, sid int32, a, b int64, flag bool, text, aux string, data []byte) {
	if !r.On() {
		return
	}
	r.record(clock.Now(), k, sid, a, b, flag, text, nil, aux, nil, data)
}

// RecordAttempt logs one pattern attempt: pattern text plus a preview of
// the buffer it was tried against.
func (r *Recorder) RecordAttempt(sid int32, caseIdx int, bufLen int, matched bool, pattern string, buf []byte) {
	if !r.On() {
		return
	}
	r.record(clock.Now(), KindAttempt, sid, int64(caseIdx), int64(bufLen), matched, pattern, nil, "", previewTail(buf, AuxCap), nil)
}

// previewTail bounds b to its last n bytes (the tail is where the action
// is: new output arrives at the end of the match buffer).
func previewTail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// Events returns the buffered events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.lenLocked()
	out := make([]Event, 0, n)
	start := r.next - uint64(n)
	for i := uint64(0); i < uint64(n); i++ {
		out = append(out, r.ring[(start+i)%uint64(len(r.ring))])
	}
	return out
}

// EventJSON is the dump schema: one JSON object per line, stable field
// names, previews as (JSON-escaped) strings. Journal lines additionally
// carry Data — the FULL byte payload, base64-encoded — because previews
// are bounded and JSON string escaping cannot round-trip arbitrary bytes;
// Data is what makes a journal byte-for-byte replayable.
type EventJSON struct {
	Seq  uint64 `json:"seq"`
	TNs  int64  `json:"t_ns"`
	Kind string `json:"kind"`
	SID  int32  `json:"sid"`
	A    int64  `json:"a,omitempty"`
	B    int64  `json:"b,omitempty"`
	OK   bool   `json:"ok,omitempty"`
	Text string `json:"text,omitempty"`
	Aux  string `json:"aux,omitempty"`
	Data []byte `json:"data,omitempty"`
}

// KindID resolves the kind name back to its Kind (false for unknown).
func (e *EventJSON) KindID() (Kind, bool) { return KindFromString(e.Kind) }

func toJSON(e *Event) EventJSON {
	return EventJSON{
		Seq: e.Seq, TNs: e.At, Kind: e.Kind.String(), SID: e.SID,
		A: e.A, B: e.B, OK: e.Flag,
		// Previews are sanitized to valid UTF-8 so marshal∘parse is a
		// fixpoint (the JSON encoder escapes invalid bytes asymmetrically).
		// Exact bytes, when they matter, travel in Data.
		Text: strings.ToValidUTF8(e.Text(), "�"),
		Aux:  strings.ToValidUTF8(e.Aux(), "�"),
	}
}

// DumpJSONL writes the last n buffered events (all of them when n <= 0) as
// JSON lines. This is the machine-readable flight recording attached to
// timeout errors and conformance divergence reports.
func (r *Recorder) DumpJSONL(w io.Writer, n int) error {
	for _, e := range r.tail(n) {
		j := toJSON(&e)
		line, err := json.Marshal(j)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// Dump returns the last n events (all when n <= 0) as a JSONL byte slice.
func (r *Recorder) Dump(n int) []byte {
	if r == nil {
		return nil
	}
	var sb sliceWriter
	r.DumpJSONL(&sb, n)
	return sb.b
}

type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

func (r *Recorder) tail(n int) []Event {
	evs := r.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// ParseError reports where a dump or journal stopped being parseable: the
// 1-based line number and the byte offset of that line's start. Truncated
// tails, garbage lines, unknown kinds, and seq regressions all land here —
// a journal that fails to parse must fail loudly and positioned, never
// feed a replay a silently shortened history.
type ParseError struct {
	Line   int
	Offset int
	Msg    string
	Err    error
}

func (e *ParseError) Error() string {
	s := fmt.Sprintf("trace: line %d (byte %d): %s", e.Line, e.Offset, e.Msg)
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

func (e *ParseError) Unwrap() error { return e.Err }

// ParseJSONL decodes a DumpJSONL flight recording or journal (tests,
// tooling, and the replay engine use this). The schema is strict: every
// line must be a complete JSON event, the kind must name a known Kind,
// and seq must be strictly increasing. Errors are *ParseError carrying the
// offending line's position; the events decoded before it are returned so
// a caller can report how far the recording was good.
func ParseJSONL(data []byte) ([]EventJSON, error) {
	var out []EventJSON
	var prevSeq uint64
	lineNo := 0
	start := 0
	for i := 0; i <= len(data); i++ {
		if i == len(data) || data[i] == '\n' {
			line := data[start:i]
			lineStart := start
			start = i + 1
			if len(line) == 0 {
				continue
			}
			lineNo++
			var e EventJSON
			if err := json.Unmarshal(line, &e); err != nil {
				return out, &ParseError{Line: lineNo, Offset: lineStart,
					Msg: fmt.Sprintf("bad event %q", bound(line, 80)), Err: err}
			}
			if _, ok := KindFromString(e.Kind); !ok {
				return out, &ParseError{Line: lineNo, Offset: lineStart,
					Msg: fmt.Sprintf("unknown event kind %q", e.Kind)}
			}
			if e.Seq <= prevSeq {
				return out, &ParseError{Line: lineNo, Offset: lineStart,
					Msg: fmt.Sprintf("seq %d not after %d", e.Seq, prevSeq)}
			}
			prevSeq = e.Seq
			out = append(out, e)
		}
	}
	return out, nil
}

// bound truncates a line for inclusion in an error message.
func bound(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

// MarshalJSONL renders events back to the exact JSONL bytes DumpJSONL and
// the journal produce — ParseJSONL∘MarshalJSONL is a fixpoint, which is
// what lets the fuzz harness prove round-trips lossless and the replay
// engine diff two recordings as bytes.
func MarshalJSONL(events []EventJSON) []byte {
	var sb sliceWriter
	for i := range events {
		line, err := json.Marshal(&events[i])
		if err != nil {
			continue // fixed schema: cannot happen
		}
		sb.Write(append(line, '\n'))
	}
	return sb.b
}
