package trace

import (
	"bytes"
	"fmt"
	"testing"
)

// drainTap collects every line currently buffered on the tap without
// blocking (delivery is synchronous with Record, so by the time Record
// returns the line is either queued or dropped).
func drainTap(t *Tap) [][]byte {
	var out [][]byte
	for {
		select {
		case line, ok := <-t.Events():
			if !ok {
				return out
			}
			out = append(out, line)
		default:
			return out
		}
	}
}

func TestTapStreamsParseableJSONL(t *testing.T) {
	r := New(64)
	tap := r.Subscribe(-1, 16)
	defer tap.Close()
	if !r.Recording() {
		t.Fatal("Subscribe did not arm recording")
	}
	for i := 0; i < 5; i++ {
		r.Record(KindRead, 3, int64(i), 0, true, fmt.Sprintf("line-%d", i), "")
	}
	lines := drainTap(tap)
	if len(lines) != 5 {
		t.Fatalf("tap delivered %d lines, want 5", len(lines))
	}
	// Every delivered line is journal-schema JSONL: the strict parser
	// accepts the concatenation.
	evs, err := ParseJSONL(bytes.Join(lines, nil))
	if err != nil {
		t.Fatalf("ParseJSONL(tap output): %v", err)
	}
	for i, e := range evs {
		if e.SID != 3 || e.Kind != "read" {
			t.Errorf("event %d: sid=%d kind=%q", i, e.SID, e.Kind)
		}
		if want := fmt.Sprintf("line-%d", i); e.Text != want {
			t.Errorf("event %d: text %q, want %q", i, e.Text, want)
		}
	}
}

func TestTapSIDFilter(t *testing.T) {
	r := New(64)
	all := r.Subscribe(-1, 32)
	only7 := r.Subscribe(7, 32)
	defer all.Close()
	defer only7.Close()
	for sid := int32(5); sid <= 9; sid++ {
		r.Record(KindMatch, sid, 0, 0, true, "x", "")
	}
	if got := len(drainTap(all)); got != 5 {
		t.Errorf("unfiltered tap got %d lines, want 5", got)
	}
	lines := drainTap(only7)
	if len(lines) != 1 {
		t.Fatalf("sid=7 tap got %d lines, want 1", len(lines))
	}
	evs, err := ParseJSONL(lines[0])
	if err != nil {
		t.Fatalf("ParseJSONL: %v", err)
	}
	if evs[0].SID != 7 {
		t.Errorf("filtered tap delivered sid %d, want 7", evs[0].SID)
	}
}

func TestTapNeverBlocksAndCountsDrops(t *testing.T) {
	r := New(64)
	tap := r.Subscribe(-1, 2) // tiny buffer, nobody reading
	defer tap.Close()
	for i := 0; i < 10; i++ {
		r.Record(KindWrite, 1, 0, 0, false, "spam", "")
	}
	if got := tap.Dropped(); got != 8 {
		t.Errorf("Dropped = %d, want 8 (10 recorded, buffer 2)", got)
	}
	if got := len(drainTap(tap)); got != 2 {
		t.Errorf("buffered lines = %d, want 2", got)
	}
	// The recorder itself lost nothing: the ring kept recording while the
	// tap overflowed.
	if got := r.Total(); got != 10 {
		t.Errorf("ring Total = %d, want 10", got)
	}
}

func TestTapCloseDetachesAndIsIdempotent(t *testing.T) {
	r := New(64)
	tap := r.Subscribe(-1, 4)
	r.Record(KindRead, 1, 0, 0, false, "before", "")
	tap.Close()
	tap.Close() // second close must not panic or double-close the channel
	r.Record(KindRead, 1, 0, 0, false, "after", "")

	// The pre-close line is still readable, then the channel reports closed.
	lines := drainTap(tap)
	if len(lines) != 1 {
		t.Fatalf("got %d lines after close, want the 1 pre-close line", len(lines))
	}
	if _, ok := <-tap.Events(); ok {
		t.Error("channel still open after Close")
	}
	if tap.Dropped() != 0 {
		t.Errorf("post-close records counted as drops: %d", tap.Dropped())
	}
}

func TestTapNilRecorderAndNilTap(t *testing.T) {
	var r *Recorder
	tap := r.Subscribe(-1, 0)
	if tap != nil {
		t.Fatal("nil recorder Subscribe returned a tap")
	}
	tap.Close()
	if tap.Dropped() != 0 {
		t.Error("nil tap Dropped != 0")
	}
	if tap.Events() != nil {
		t.Error("nil tap Events() != nil")
	}
}

func TestTapCoexistsWithJournal(t *testing.T) {
	r := New(64)
	j := NewJournal()
	r.SetJournal(j)
	tap := r.Subscribe(-1, 16)
	defer tap.Close()
	for i := 0; i < 3; i++ {
		r.Record(KindEval, 2, int64(i), 0, false, "cmd", "")
	}
	tapped := bytes.Join(drainTap(tap), nil)
	if err := j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	// Tap and journal render the same schema from the same stream.
	if got, want := tapped, j.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("tap and journal diverge:\ntap:\n%s\njournal:\n%s", got, want)
	}
}

// TestWatchedTracksEvalConsumers: Watched holds exactly while an eval
// event (SID -1) has a consumer beyond the ring: diagnostics at level 2
// or an unfiltered tap. A level-1 narration, a tap filtered to one
// session and a journal do not count.
func TestWatchedTracksEvalConsumers(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Watched() {
		t.Error("nil recorder watched")
	}
	r := New(0)
	r.SetRecording(true)
	check := func(step string, want bool) {
		t.Helper()
		if got := r.Watched(); got != want {
			t.Errorf("%s: Watched() = %v, want %v", step, got, want)
		}
	}
	check("ring only", false)
	r.SetJournal(NewJournal())
	check("journal", false)
	r.SetDiag(1, &bytes.Buffer{})
	check("diag 1", false)
	r.SetDiag(2, &bytes.Buffer{})
	check("diag 2", true)
	r.SetDiag(0, nil)
	check("diag 0", false)
	one := r.Subscribe(3, 0)
	check("sid tap", false)
	a, b := r.Subscribe(-1, 0), r.Subscribe(-1, 0)
	check("two unfiltered taps", true)
	a.Close()
	check("one unfiltered tap closed", true)
	b.Close()
	check("both unfiltered taps closed", false)
	r.SetDiag(2, &bytes.Buffer{})
	one.Close()
	check("diag 2 after the sid tap closed", true)
}
