package trace

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/clock"
)

// TestRecordAtKeepsCallerStamp checks that RecordAt stamps the event with
// the caller's clock reading instead of reading the clock again, on the
// same time base as Record.
func TestRecordAtKeepsCallerStamp(t *testing.T) {
	r := New(8)
	r.SetRecording(true)
	before := clock.Now()
	r.Record(KindRead, 0, 0, 0, false, "now", "")
	after := clock.Now()
	r.RecordAt(before-1000, KindEval, -1, 5, 2, false, "set", "")
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if at := evs[0].At; at < before-r.epoch || at > after-r.epoch {
		t.Errorf("Record stamped %d, want within [%d, %d]", at, before-r.epoch, after-r.epoch)
	}
	if got, want := evs[1].At, before-1000-r.epoch; got != want {
		t.Errorf("RecordAt stamped %d, want the caller's %d", got, want)
	}
	if evs[1].Kind != KindEval || evs[1].A != 5 || evs[1].B != 2 || evs[1].Text() != "set" {
		t.Errorf("RecordAt payload = %+v", evs[1])
	}
	r.SetRecording(false)
	r.RecordAt(after, KindEval, -1, 0, 0, false, "off", "")
	if r.Total() != 2 {
		t.Errorf("disabled recorder kept a RecordAt event")
	}
}

func TestRingWraparound(t *testing.T) {
	r := New(8)
	r.SetRecording(true)
	for i := 0; i < 20; i++ {
		r.Record(KindRead, 0, int64(i), 0, false, fmt.Sprintf("chunk-%d", i), "")
	}
	if got := r.Total(); got != 20 {
		t.Fatalf("Total = %d, want 20", got)
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8 (ring capacity)", got)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("Events returned %d, want 8", len(evs))
	}
	// The ring holds exactly the last 8, oldest first, seqs 13..20.
	for i, e := range evs {
		wantSeq := uint64(13 + i)
		if e.Seq != wantSeq {
			t.Errorf("event %d: Seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if want := fmt.Sprintf("chunk-%d", 12+i); e.Text() != want {
			t.Errorf("event %d: Text = %q, want %q", i, e.Text(), want)
		}
	}
}

func TestConcurrentWriters(t *testing.T) {
	r := New(64)
	r.SetRecording(true)
	const writers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.RecordBytes(KindWrite, int32(w), int64(i), 0, false, []byte("abc"), nil)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Total(); got != writers*each {
		t.Fatalf("Total = %d, want %d", got, writers*each)
	}
	evs := r.Events()
	if len(evs) != 64 {
		t.Fatalf("Len = %d, want 64", len(evs))
	}
	// Sequence numbers of the survivors are contiguous and end at Total.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	if evs[len(evs)-1].Seq != writers*each {
		t.Errorf("last seq = %d, want %d", evs[len(evs)-1].Seq, writers*each)
	}
}

// TestDisabledPathAllocationFree pins the overhead contract: a disabled (or
// nil) recorder costs one check and zero allocations at every site, even
// sites that would record byte previews.
func TestDisabledPathAllocationFree(t *testing.T) {
	r := New(16) // never armed
	chunk := []byte("some child output that would be previewed")
	if allocs := testing.AllocsPerRun(200, func() {
		if r.On() {
			t.Fatal("recorder should be disabled")
		}
		r.RecordBytes(KindRead, 0, int64(len(chunk)), 0, false, chunk, nil)
		r.RecordAttempt(0, 1, len(chunk), false, "*pattern*", chunk)
	}); allocs > 0 {
		t.Errorf("disabled recorder allocates %.1f objects per site, want 0", allocs)
	}

	var nilRec *Recorder
	if allocs := testing.AllocsPerRun(200, func() {
		nilRec.Record(KindRead, 0, 1, 2, false, "x", "")
		if nilRec.On() || nilRec.Recording() {
			t.Fatal("nil recorder must be off")
		}
	}); allocs > 0 {
		t.Errorf("nil recorder allocates %.1f objects per site, want 0", allocs)
	}
}

// TestEnabledRingAllocationFree: steady-state ring recording copies into
// preallocated slots and allocates nothing per event.
func TestEnabledRingAllocationFree(t *testing.T) {
	r := New(32)
	r.SetRecording(true)
	chunk := []byte("payload")
	if allocs := testing.AllocsPerRun(200, func() {
		r.RecordBytes(KindRead, 3, 7, 0, false, chunk, nil)
	}); allocs > 0 {
		t.Errorf("armed ring recording allocates %.1f objects per event, want 0", allocs)
	}
}

func TestDumpJSONLRoundTrip(t *testing.T) {
	r := New(16)
	r.SetRecording(true)
	r.Record(KindSpawn, 0, 1234, 0, false, "rogue", "pty")
	r.RecordAttempt(0, 2, 11, false, `*Str: 18*`, []byte("Level: 1 \"q\""))
	r.Record(KindTimeout, 0, 11, int64(10e9), false, "Level: 1", "")

	dump := r.Dump(0)
	evs, err := ParseJSONL(dump)
	if err != nil {
		t.Fatalf("ParseJSONL: %v\n%s", err, dump)
	}
	if len(evs) != 3 {
		t.Fatalf("parsed %d events, want 3:\n%s", len(evs), dump)
	}
	if evs[0].Kind != "spawn" || evs[0].Text != "rogue" || evs[0].Aux != "pty" || evs[0].A != 1234 {
		t.Errorf("spawn event round-trip: %+v", evs[0])
	}
	if evs[1].Kind != "attempt" || evs[1].Text != `*Str: 18*` || evs[1].OK {
		t.Errorf("attempt event round-trip: %+v", evs[1])
	}
	if evs[1].Aux != "Level: 1 \"q\"" {
		t.Errorf("attempt aux round-trip: %q", evs[1].Aux)
	}
	if evs[2].Kind != "timeout" || evs[2].B != int64(10e9) {
		t.Errorf("timeout event round-trip: %+v", evs[2])
	}
	if k, ok := KindFromString(evs[1].Kind); !ok || k != KindAttempt {
		t.Errorf("KindFromString(%q) = %v, %v", evs[1].Kind, k, ok)
	}
}

func TestDumpLastN(t *testing.T) {
	r := New(32)
	r.SetRecording(true)
	for i := 0; i < 10; i++ {
		r.Record(KindEval, -1, int64(i), 0, false, "cmd", "")
	}
	evs, err := ParseJSONL(r.Dump(3))
	if err != nil || len(evs) != 3 {
		t.Fatalf("Dump(3): %d events, err %v", len(evs), err)
	}
	if evs[0].Seq != 8 || evs[2].Seq != 10 {
		t.Errorf("tail seqs = %d..%d, want 8..10", evs[0].Seq, evs[2].Seq)
	}
}

func TestPreviewBounds(t *testing.T) {
	r := New(4)
	r.SetRecording(true)
	long := strings.Repeat("x", 500)
	r.Record(KindRead, 0, 500, 0, false, long, long)
	e := r.Events()[0]
	if len(e.Text()) != TextCap {
		t.Errorf("text preview len = %d, want %d", len(e.Text()), TextCap)
	}
	if len(e.Aux()) != AuxCap {
		t.Errorf("aux preview len = %d, want %d", len(e.Aux()), AuxCap)
	}
	// RecordAttempt keeps the buffer *tail* — that's where fresh output is.
	r.RecordAttempt(0, 0, 500, false, "*p*", []byte(strings.Repeat("a", 400)+"TAIL-MARKER"))
	e = r.Events()[1]
	if !strings.HasSuffix(e.Aux(), "TAIL-MARKER") {
		t.Errorf("attempt preview lost the tail: %q", e.Aux())
	}
}

func TestDiagRenderingLevels(t *testing.T) {
	var out bytes.Buffer
	r := New(16)
	r.SetDiag(1, &out)
	if !r.Recording() {
		t.Fatal("SetDiag should arm ring recording")
	}
	r.RecordBytes(KindRead, 0, 5, 0, false, []byte("hello"), nil)
	r.RecordAttempt(0, 0, 5, true, "*hello*", []byte("hello"))
	r.RecordBytes(KindWrite, 0, 3, 0, false, []byte("ok\r"), nil) // level-2 only
	got := out.String()
	if !strings.Contains(got, `received (spawn_id 0, 5 bytes): "hello"`) {
		t.Errorf("level 1 missing received line:\n%s", got)
	}
	if !strings.Contains(got, `match pattern "*hello*"? yes`) {
		t.Errorf("level 1 missing attempt verdict:\n%s", got)
	}
	if strings.Contains(got, "send: sent") {
		t.Errorf("level 1 rendered a level-2 event:\n%s", got)
	}

	out.Reset()
	r.SetDiag(2, &out)
	r.RecordBytes(KindWrite, 0, 3, 0, false, []byte("ok\r"), nil)
	if !strings.Contains(out.String(), "send: sent") {
		t.Errorf("level 2 missing send line:\n%s", out.String())
	}

	// Level 0 silences rendering but keeps the flight recording running.
	out.Reset()
	r.SetDiag(0, &out)
	r.RecordBytes(KindRead, 0, 2, 0, false, []byte("hi"), nil)
	if out.Len() != 0 {
		t.Errorf("level 0 still rendered:\n%s", out.String())
	}
	if !r.Recording() {
		t.Error("turning diag off should not stop the flight recording")
	}
}

func TestRenderWholeRecording(t *testing.T) {
	r := New(8)
	r.SetRecording(true)
	r.Record(KindSpawn, 1, 99, 0, false, "fsck-sim", "virtual")
	r.Record(KindForget, 1, 120, 2120, false, "", "")
	r.Record(KindFault, 1, 1, 0, false, "read transient (injected EAGAIN)", "")
	var out bytes.Buffer
	r.Render(&out)
	for _, want := range []string{"spawn: fsck-sim", "match_max: forgot 120 bytes", "faultify: read transient"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("rendering missing %q:\n%s", want, out.String())
		}
	}
}

func TestReset(t *testing.T) {
	r := New(8)
	r.SetRecording(true)
	r.Record(KindRead, 0, 1, 0, false, "x", "")
	r.Reset()
	if r.Len() != 0 || len(r.Events()) != 0 || len(r.Dump(0)) != 0 {
		t.Error("Reset left events behind")
	}
}
