package core

import (
	"encoding/json"
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/tcl"
)

// This file is the checkpoint half of the replay subsystem: a
// serializable snapshot of live session state — match buffer, counters,
// stream disposition, and any pending Expect call — that can cross a
// process boundary and resume on the other side. Checkpoints are what let
// expectd survive a crash mid-soak (cmd/expectd -checkpoint/-restore).
// Within a process a session never moves: it stays on the shard that
// adopted it until it ends (shard.go invariant 1). Only parked Expect
// calls are pending ops: an ExpectAny's member ops wait on the fan-in's
// watcher instead, and are left out, because a restored session could
// not resume a wait that spans other sessions.

// CaseSpec is the portable form of one expect case: kind plus source
// pattern. Compiled forms (regexp programs, glob NFAs) are rebuilt on
// restore.
type CaseSpec struct {
	Kind    int    `json:"k"`
	Pattern string `json:"p,omitempty"`
}

// OpCheckpoint is a pending Expect call: its case list and how much of
// its deadline budget remained at checkpoint time. RemainingNS is -1 for
// a wait-forever call; a fired-but-unresolved deadline checkpoints as 0.
type OpCheckpoint struct {
	Cases       []CaseSpec `json:"cases"`
	RemainingNS int64      `json:"remaining_ns"`
}

// SessionCheckpoint is the serializable snapshot of one session's dialogue
// state. Buffer is always a fresh copy taken under the session lock —
// never an alias of owned segment backing, so a checkpoint neither pins a
// transport lease nor goes stale when the source session trims (the
// lease-safety contract the owned-ingest path requires).
type SessionCheckpoint struct {
	Name      string         `json:"name"`
	SID       int32          `json:"sid"`
	Matcher   int            `json:"matcher,omitempty"`
	MatchMax  int            `json:"match_max"`
	TimeoutNS int64          `json:"timeout_ns"`
	Buffer    []byte         `json:"buffer,omitempty"`
	TotalSeen int64          `json:"total_seen"`
	Forgotten int64          `json:"forgotten,omitempty"`
	Eof       bool           `json:"eof,omitempty"`
	ReadErr   string         `json:"read_err,omitempty"`
	Pending   []OpCheckpoint `json:"pending,omitempty"`
}

// Marshal renders the checkpoint as one JSON object.
func (cp *SessionCheckpoint) Marshal() []byte {
	b, _ := json.Marshal(cp)
	return b
}

// ParseSessionCheckpoint inverts Marshal.
func ParseSessionCheckpoint(b []byte) (*SessionCheckpoint, error) {
	cp := new(SessionCheckpoint)
	if err := json.Unmarshal(b, cp); err != nil {
		return nil, err
	}
	return cp, nil
}

// Checkpoint snapshots the session's dialogue state under its lock,
// including every Expect call parked on it, each with the deadline budget
// it has left.
func (s *Session) Checkpoint() *SessionCheckpoint {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := &SessionCheckpoint{
		Name:      s.name,
		SID:       s.sid,
		Matcher:   int(s.matcher),
		MatchMax:  s.mb.max,
		TimeoutNS: int64(s.timeout),
		TotalSeen: s.totalSeen,
		Forgotten: s.forgotten,
		Eof:       s.eof,
	}
	if s.readErr != nil && s.readErr != io.EOF {
		cp.ReadErr = s.readErr.Error()
	}
	if s.mb.length() > 0 {
		// The copy is the lease-safety guarantee: the live view may sit on
		// adopted segment backing whose lease stays with this session.
		cp.Buffer = append([]byte(nil), s.mb.bytes()...)
	}
	for _, op := range s.parked {
		cp.Pending = append(cp.Pending, op.checkpoint(now))
	}
	return cp
}

// checkpoint captures a parked op's portable form. The caller holds s.mu.
func (op *expectOp) checkpoint(now time.Time) OpCheckpoint {
	return OpCheckpoint{Cases: appendCaseSpecs(nil, op.cases), RemainingNS: op.remainingNS(now)}
}

// remainingNS is the op's deadline budget left at now: -1 for a
// wait-forever op, 0 once the deadline has passed.
func (op *expectOp) remainingNS(now time.Time) int64 {
	if op.deadline.IsZero() {
		return -1
	}
	return max(op.deadline.Sub(now).Nanoseconds(), 0)
}

// RestoreSession rebuilds a session from a checkpoint. With rw nil the
// session is manual — driven by Feed/FeedEOF, as replay and tests do;
// otherwise rw becomes the live transport and a pump goroutine drives it
// (restored sessions are never shard-adopted: they carry no proc handle
// for a shard to ingest). The buffer, counters, and stream disposition
// resume exactly where the checkpoint left them; a pending expect from
// cp.Pending is re-issued with ResumeExpect.
func RestoreSession(cfg *Config, cp *SessionCheckpoint, rw io.ReadWriteCloser) (*Session, error) {
	if cp == nil {
		return nil, errors.New("core: restore: nil checkpoint")
	}
	var c Config
	if cfg != nil {
		c = *cfg
	}
	c.Sched = nil
	if c.MatchMax == 0 {
		c.MatchMax = cp.MatchMax
	}
	c.Matcher = MatcherMode(cp.Matcher)
	if c.SID == 0 {
		c.SID = cp.SID
	}
	s := newManualSession(&c, cp.Name)
	s.mu.Lock()
	if len(cp.Buffer) > 0 {
		s.mb.appendData(cp.Buffer)
	}
	s.timeout = time.Duration(cp.TimeoutNS)
	s.totalSeen = cp.TotalSeen
	s.forgotten = cp.Forgotten
	if cp.Eof {
		s.eof = true
		s.readErr = io.EOF
		if cp.ReadErr != "" {
			s.readErr = errors.New(cp.ReadErr)
		}
	}
	s.mu.Unlock()
	if rw != nil {
		s.rw = rw
		s.pumpDone = make(chan struct{})
		s.pumpOnce = sync.Once{}
		go s.pump()
	}
	return s, nil
}

// EngineCheckpoint is a whole-engine snapshot: the interpreter's global
// variables plus one SessionCheckpoint per live spawn id. It is what
// expectd writes on SIGUSR1 and reads back with -restore.
type EngineCheckpoint struct {
	Globals  map[string]tcl.VarSnapshot `json:"globals,omitempty"`
	Sessions []EngineSessionCheckpoint  `json:"sessions,omitempty"`
}

// EngineSessionCheckpoint pairs a session snapshot with its spawn id.
type EngineSessionCheckpoint struct {
	ID      int                `json:"id"`
	Session *SessionCheckpoint `json:"session"`
}

// Marshal renders the engine checkpoint as one JSON object.
func (ec *EngineCheckpoint) Marshal() []byte {
	b, _ := json.Marshal(ec)
	return b
}

// ParseEngineCheckpoint inverts Marshal.
func ParseEngineCheckpoint(b []byte) (*EngineCheckpoint, error) {
	ec := new(EngineCheckpoint)
	if err := json.Unmarshal(b, ec); err != nil {
		return nil, err
	}
	return ec, nil
}

// CheckpointAll snapshots the interpreter globals and every live session.
// The interpreter is not safe for concurrent use, so call this from the
// goroutine that runs scripts (or between runs), not concurrently with
// evaluation; each session snapshot is taken under that session's lock.
func (e *Engine) CheckpointAll() *EngineCheckpoint {
	out := &EngineCheckpoint{Globals: e.Interp.SnapshotGlobals()}
	for _, id := range e.SessionIDs() {
		s, ok := e.SessionByID(id)
		if !ok {
			continue
		}
		out.Sessions = append(out.Sessions, EngineSessionCheckpoint{ID: id, Session: s.Checkpoint()})
	}
	return out
}

// RestoreGlobals installs a checkpoint's interpreter globals. Sessions
// are left to the caller: the engine cannot conjure the transports they
// were attached to, so restoring them is RestoreSession plus whatever
// reconnect logic the deployment has (see cmd/expectd -restore).
func (e *Engine) RestoreGlobals(ec *EngineCheckpoint) {
	if ec == nil {
		return
	}
	e.Interp.RestoreGlobals(ec.Globals)
}

// ResumeExpect re-issues a checkpointed pending Expect with whatever
// deadline budget it had left.
func (s *Session) ResumeExpect(oc OpCheckpoint) (*MatchResult, error) {
	cases, err := casesFromSpecs(oc.Cases)
	if err != nil {
		return nil, err
	}
	d := time.Duration(-1)
	if oc.RemainingNS >= 0 {
		d = time.Duration(oc.RemainingNS)
	}
	return s.ExpectTimeout(d, cases...)
}
