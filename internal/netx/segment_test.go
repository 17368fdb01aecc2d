package netx

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/testutil"
)

// TestSegmentLeaseReturnRoundTrip pins the pool contract: a fresh lease
// allocates once, Release parks the buffer on the free list, and the next
// Get hands the same backing array back empty.
func TestSegmentLeaseReturnRoundTrip(t *testing.T) {
	st := &metrics.IngestStats{}
	p := NewSegmentPool(512, st)
	if p.Size() != 512 {
		t.Fatalf("Size() = %d, want 512", p.Size())
	}

	g := p.Get()
	if len(g.Bytes()) != 0 || cap(g.buf) != 512 {
		t.Fatalf("fresh segment: %d live bytes, cap %d", len(g.Bytes()), cap(g.buf))
	}
	backing := &g.buf[0]
	g.n = copy(g.buf, "hello")
	if string(g.Bytes()) != "hello" || g.Len() != 5 {
		t.Fatalf("Bytes() = %q (len %d)", g.Bytes(), g.Len())
	}
	g.advance(2)
	if string(g.Bytes()) != "llo" {
		t.Fatalf("after advance(2): %q", g.Bytes())
	}

	g.Release()
	if p.Idle() != 1 {
		t.Fatalf("Idle() = %d after release, want 1", p.Idle())
	}
	g2 := p.Get()
	if p.Idle() != 0 {
		t.Fatalf("Idle() = %d after re-lease, want 0", p.Idle())
	}
	if &g2.buf[0] != backing {
		t.Fatal("re-lease did not reuse the released backing array")
	}
	if g2.Len() != 0 || len(g2.Bytes()) != 0 {
		t.Fatalf("re-leased segment not rewound: len %d", g2.Len())
	}
	g2.Release()

	if got := st.SegmentLeases(); got != 2 {
		t.Errorf("SegmentLeases() = %d, want 2", got)
	}
	if got := st.SegmentReuses(); got != 1 {
		t.Errorf("SegmentReuses() = %d, want 1", got)
	}
	if got := st.IngestAllocs(); got != 1 {
		t.Errorf("IngestAllocs() = %d, want 1 (only the cold lease)", got)
	}
}

// TestSegmentDoubleReleasePanics: returning a segment twice is a
// use-after-ownership-return bug and must fail loudly, not corrupt the
// free list.
func TestSegmentDoubleReleasePanics(t *testing.T) {
	p := NewSegmentPool(64, nil)
	g := p.Get()
	g.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	g.Release()
}

// TestInboxPutSegAfterCloseRead: tearing down the read side drops queued
// segments back to their pool, and a producer arriving afterwards gets
// its segment returned and a stop signal — nothing leaks, nothing lands
// in a dead queue.
func TestInboxPutSegAfterCloseRead(t *testing.T) {
	st := &metrics.IngestStats{}
	p := NewSegmentPool(64, st)
	var q inbox
	q.init(256, p.Size(), st)

	g := p.Get()
	g.n = copy(g.buf, "queued")
	if !q.putSeg(g) {
		t.Fatal("putSeg on a live inbox reported stop")
	}
	if p.Idle() != 0 {
		t.Fatalf("Idle() = %d with a segment queued, want 0", p.Idle())
	}

	q.closeRead()
	if p.Idle() != 1 {
		t.Fatalf("Idle() = %d after closeRead, want 1 (queued segment returned)", p.Idle())
	}

	late := p.Get()
	late.n = copy(late.buf, "late")
	if q.putSeg(late) {
		t.Fatal("putSeg after closeRead reported success")
	}
	if p.Idle() != 1 {
		t.Fatalf("Idle() = %d after rejected put, want 1 (late segment returned)", p.Idle())
	}

	if g, ok, err := q.tryTake(); g != nil || !ok || err != io.EOF {
		t.Fatalf("tryTake after closeRead = (%v, %v, %v), want (nil, true, io.EOF)", g, ok, err)
	}
}

// TestSegmentIngestSteadyStateAllocs pins the zero-copy hot loop: once
// the pool and queue are warm, a full lease → fill → hand off → take →
// release cycle performs no heap allocations. This is the regression
// guard for the per-dialogue alloc claim in E19.
func TestSegmentIngestSteadyStateAllocs(t *testing.T) {
	p := NewSegmentPool(128, nil)
	var q inbox
	q.init(1024, p.Size(), nil)
	payload := []byte("twelve bytes")

	bad := false
	avg := testing.AllocsPerRun(200, func() {
		g := p.Get()
		g.n = copy(g.buf, payload)
		if !q.putSeg(g) {
			bad = true
			return
		}
		got, ok, err := q.tryTake()
		if got == nil || !ok || err != nil {
			bad = true
			return
		}
		got.Release()
	})
	if bad {
		t.Fatal("ingest cycle failed mid-measurement")
	}
	if avg != 0 {
		t.Errorf("steady-state ingest cycle allocates %.1f times per run, want 0", avg)
	}
}

// TestOwnedIngestRaceHammer streams a deterministic pattern through a
// live socket and drains it with TryReadOwned + immediate Release while
// the producer keeps re-leasing the same pool. Byte identity proves no
// chunk is read after its ownership went back; the race detector (the
// check.sh unit tier runs this under -race) proves the happens-before
// edges around the pool free list.
func TestOwnedIngestRaceHammer(t *testing.T) {
	defer testutil.LeakCheck(t, 10, 5*time.Second)()
	const total = 1 << 20
	pattern := func(i int) byte { return byte(i*31 + 7) }

	srv, err := NewServer("127.0.0.1:0", func(stdin io.Reader, stdout io.Writer) error {
		buf := make([]byte, 8192)
		for off := 0; off < total; {
			n := len(buf)
			if total-off < n {
				n = total - off
			}
			for i := 0; i < n; i++ {
				buf[i] = pattern(off + i)
			}
			if _, err := stdout.Write(buf[:n]); err != nil {
				return err
			}
			off += n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(5 * time.Second)

	// A small inbox forces the producer through the full park/wake
	// backpressure cycle many times over the 1 MiB stream.
	nc, err := Dial(srv.Addr(), Options{ReadBuf: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	rings := make(chan struct{}, 1)
	nc.SetReadNotify(func() {
		select {
		case rings <- struct{}{}:
		default:
		}
	})

	seen := 0
	deadline := time.Now().Add(30 * time.Second)
	for {
		o, ok, err := nc.TryReadOwned()
		if o != nil {
			for i, b := range o.Bytes() {
				if b != pattern(seen+i) {
					t.Fatalf("byte %d = %#x, want %#x (stale or reused segment)", seen+i, b, pattern(seen+i))
				}
			}
			seen += len(o.Bytes())
			o.Release()
			continue
		}
		if ok {
			if err != io.EOF {
				t.Fatalf("terminal disposition %v, want io.EOF", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled after %d of %d bytes", seen, total)
		}
		select {
		case <-rings:
		case <-time.After(50 * time.Millisecond):
		}
	}
	if seen != total {
		t.Fatalf("drained %d bytes, want %d", seen, total)
	}
	if _, _, err := nc.TryReadOwned(); err != io.EOF && !errors.Is(err, io.EOF) {
		t.Fatalf("post-EOF TryReadOwned err = %v", err)
	}
}
