package core

import (
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// fakeOwned is a pooled-segment stand-in: Release scribbles the payload,
// the way a real pool reusing the backing for another connection would.
type fakeOwned struct {
	data     []byte
	released atomic.Bool
}

func (f *fakeOwned) Bytes() []byte { return f.data }
func (f *fakeOwned) Release() {
	f.released.Store(true)
	for i := range f.data {
		f.data[i] = 0xee
	}
}

func TestSessionCheckpointRestoreRoundTrip(t *testing.T) {
	s := NewManualSession(&Config{MatchMax: 128, Timeout: 7 * time.Second}, "cp")
	s.Feed([]byte("login: "))
	cp := s.Checkpoint()

	// JSON round-trip: the checkpoint must survive a process boundary.
	cp2, err := ParseSessionCheckpoint(cp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Name != "cp" || cp2.MatchMax != 128 || cp2.TimeoutNS != int64(7*time.Second) {
		t.Fatalf("checkpoint lost config: %+v", cp2)
	}
	if string(cp2.Buffer) != "login: " || cp2.TotalSeen != 7 {
		t.Fatalf("checkpoint lost buffer state: %+v", cp2)
	}

	r, err := RestoreSession(nil, cp2, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.ExpectTimeout(time.Second, Glob("*login: "))
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != 0 {
		t.Fatalf("restored buffer did not match: %+v", res)
	}
	if seen := r.TotalSeen(); seen != 7 {
		t.Fatalf("restored totalSeen = %d, want 7", seen)
	}
}

// A checkpoint taken while the match buffer sits on adopted (owned)
// backing must copy: when the lease ends and the pool scribbles the
// segment, the checkpoint is unaffected.
func TestCheckpointCopiesOwnedBacking(t *testing.T) {
	s := NewManualSession(&Config{MatchMax: 64}, "owned")
	o := &fakeOwned{data: []byte("prompt> ")}
	s.applyOwned(o)
	cp := s.Checkpoint()

	// Simulate the pool reclaiming the segment out from under any alias.
	for i := range o.data {
		o.data[i] = 0xee
	}
	if string(cp.Buffer) != "prompt> " {
		t.Fatalf("checkpoint aliases owned backing: %q", cp.Buffer)
	}
	s.Close()
}

// The recorder reads the matched text before the match releases the
// window's adopted backing: a match or EOF event must carry the bytes
// the child sent, not what the pool scribbled over them.
func TestRecordReadsOwnedBackingBeforeRelease(t *testing.T) {
	for _, tc := range []struct {
		kind trace.Kind
		c    Case
		eof  bool
	}{
		{trace.KindMatch, Glob("*> "), false},
		{trace.KindEOF, EOFCase(), true},
	} {
		rec := trace.New(64)
		rec.SetRecording(true)
		s := NewManualSession(&Config{MatchMax: 64, Rec: rec}, "rec")
		o := &fakeOwned{data: []byte("prompt> ")}
		s.applyOwned(o)
		if tc.eof {
			s.FeedEOF(nil)
		}
		if _, err := s.ExpectTimeout(time.Second, tc.c); err != nil {
			t.Fatal(err)
		}
		if !o.released.Load() {
			t.Fatalf("%v: the window kept its adopted backing", tc.kind)
		}
		found := false
		for _, ev := range rec.Events() {
			if ev.Kind == tc.kind {
				found = true
				if ev.Text() != "prompt> " {
					t.Errorf("%v event recorded %q, want %q", tc.kind, ev.Text(), "prompt> ")
				}
			}
		}
		if !found {
			t.Errorf("no %v event recorded", tc.kind)
		}
		s.Close()
	}
}

func TestRestoreSessionResumesEOF(t *testing.T) {
	s := NewManualSession(nil, "eof")
	s.Feed([]byte("tail"))
	s.FeedEOF(io.ErrUnexpectedEOF)
	cp := s.Checkpoint()
	if !cp.Eof || cp.ReadErr == "" {
		t.Fatalf("EOF disposition not captured: %+v", cp)
	}

	r, err := RestoreSession(nil, cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.ExpectTimeout(time.Second, EOFCase())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Eof {
		t.Fatalf("restored session lost its EOF: %+v", res)
	}
}

func TestResumeExpectAfterRestore(t *testing.T) {
	s := NewManualSession(nil, "resume")
	s.Feed([]byte("partial out"))
	cp := s.Checkpoint()
	oc := OpCheckpoint{
		Cases:       []CaseSpec{{Kind: int(CaseGlob), Pattern: "*done*"}},
		RemainingNS: int64(5 * time.Second),
	}

	r, err := RestoreSession(nil, cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Feed([]byte("put done\n"))
	res, err := r.ResumeExpect(oc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != 0 || !strings.Contains(res.Text, "done") {
		t.Fatalf("resumed expect missed: %+v", res)
	}
}

// waitParked polls the session's checkpoint until the pending Expect
// shows up in it (or the deadline passes).
func waitParked(t *testing.T, s *Session) *SessionCheckpoint {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cp := s.Checkpoint(); len(cp.Pending) > 0 {
			return cp
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("expect op never parked on its session")
	return nil
}

// A checkpoint must see the ops parked on each kind of session: their case
// lists and the remaining (not original) deadline budget.
func TestSchedulerCheckpointSeesParkedOp(t *testing.T) {
	for i, row := range parkedRows {
		t.Run(row.name, func(t *testing.T) {
			e, s := spawnParkedRow(t, i)
			defer e.Shutdown()
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.ExpectTimeout(10*time.Second, Glob("*never*"), Exact("nope"))
			}()
			cp := waitParked(t, s)
			if len(cp.Pending) != 1 {
				t.Fatalf("pending ops = %d, want 1", len(cp.Pending))
			}
			oc := cp.Pending[0]
			if len(oc.Cases) != 2 || oc.Cases[0].Pattern != "*never*" || CaseKind(oc.Cases[1].Kind) != CaseExact || oc.Cases[1].Pattern != "nope" {
				t.Fatalf("pending case list wrong: %+v", oc)
			}
			if oc.RemainingNS <= 0 || oc.RemainingNS > int64(10*time.Second) {
				t.Fatalf("remaining budget out of range: %d", oc.RemainingNS)
			}
			// The engine-wide checkpoint carries the same pending op.
			ec := e.CheckpointAll()
			if len(ec.Sessions) != 1 || len(ec.Sessions[0].Session.Pending) != 1 {
				t.Fatalf("engine checkpoint sessions = %+v, want one with one pending op", ec.Sessions)
			}
			s.Close()
			<-done
		})
	}
}

func TestEngineCheckpointGlobalsRoundTrip(t *testing.T) {
	e := NewEngine(EngineOptions{})
	if _, err := e.Run("set greeting hello\nset cfg(retries) 3\nset cfg(host) deep"); err != nil {
		t.Fatal(err)
	}
	ec := e.CheckpointAll()
	ec2, err := ParseEngineCheckpoint(ec.Marshal())
	if err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine(EngineOptions{})
	e2.RestoreGlobals(ec2)
	if v, _ := e2.Interp.GlobalGet("greeting"); v != "hello" {
		t.Fatalf("greeting = %q", v)
	}
	if v, _ := e2.Interp.GlobalGet("cfg(retries)"); v != "3" {
		t.Fatalf("cfg(retries) = %q", v)
	}
	if v, _ := e2.Interp.GlobalGet("cfg(host)"); v != "deep" {
		t.Fatalf("cfg(host) = %q", v)
	}
}
