package core

import (
	"bytes"
	"testing"
)

// fakeLease counts Release calls so tests can pin the exactly-once lease
// contract of adopted backing.
type fakeLease struct{ released int }

func (f *fakeLease) Release() { f.released++ }

// TestAppendOwnedAdoptsWhenEmpty: the steady state — empty window, owned
// chunk — must adopt the buffer as backing with no copy and no release.
func TestAppendOwnedAdoptsWhenEmpty(t *testing.T) {
	b := matchBuffer{max: 100}
	lease := &fakeLease{}
	p := []byte("ding")
	forgot, adopted := b.appendOwned(p, lease)
	if !adopted || forgot != 0 {
		t.Fatalf("appendOwned = (%d, %v), want (0, true)", forgot, adopted)
	}
	if &b.data[0] != &p[0] {
		t.Fatal("adoption copied instead of taking the chunk as backing")
	}
	if lease.released != 0 {
		t.Fatalf("lease released %d times while backing is live", lease.released)
	}
	if string(b.bytes()) != "ding" {
		t.Fatalf("bytes() = %q", b.bytes())
	}
}

// TestAppendOwnedCopiesWhenWindowLive: a pending partial match means the
// window is non-empty; the owned chunk must be appended by copy, with
// adopted=false telling the caller the lease is still theirs to release.
func TestAppendOwnedCopiesWhenWindowLive(t *testing.T) {
	b := matchBuffer{max: 100}
	b.appendData([]byte("partial-"))
	lease := &fakeLease{}
	p := []byte("match")
	forgot, adopted := b.appendOwned(p, lease)
	if adopted || forgot != 0 {
		t.Fatalf("appendOwned = (%d, %v), want (0, false)", forgot, adopted)
	}
	if string(b.bytes()) != "partial-match" {
		t.Fatalf("bytes() = %q", b.bytes())
	}
	if b.free != nil {
		t.Fatal("copying append must not hold the lease")
	}
	if lease.released != 0 {
		t.Fatal("appendOwned released a lease it declined to adopt")
	}
	// The copy must not alias the chunk: mutating it afterwards (the
	// producer reusing the segment) cannot reach the window.
	p[0] = 'X'
	if string(b.bytes()) != "partial-match" {
		t.Fatalf("window aliases a declined chunk: %q", b.bytes())
	}
}

// TestAppendOwnedNilLeaseCopies: a nil lease is the plain copying path.
func TestAppendOwnedNilLeaseCopies(t *testing.T) {
	b := matchBuffer{max: 100}
	if _, adopted := b.appendOwned([]byte("plain"), nil); adopted {
		t.Fatal("nil lease must not report adoption")
	}
	if string(b.bytes()) != "plain" {
		t.Fatalf("bytes() = %q", b.bytes())
	}
}

// TestAppendOwnedOversizeTrimsByOffset: an adopted chunk larger than
// match_max is trimmed to the newest max bytes by an offset bump — no
// copy, and the forgotten count matches §3.1 semantics.
func TestAppendOwnedOversizeTrimsByOffset(t *testing.T) {
	b := matchBuffer{max: 8}
	lease := &fakeLease{}
	p := []byte("0123456789abcdef")
	forgot, adopted := b.appendOwned(p, lease)
	if !adopted || forgot != 8 {
		t.Fatalf("appendOwned = (%d, %v), want (8, true)", forgot, adopted)
	}
	if string(b.bytes()) != "89abcdef" {
		t.Fatalf("bytes() = %q, want newest 8", b.bytes())
	}
	if &b.data[0] != &p[0] {
		t.Fatal("oversize trim copied instead of bumping the offset")
	}
	if lease.released != 0 {
		t.Fatal("lease released while trimmed backing is live")
	}
}

// TestAppendOwnedReleaseOnForget walks every way the window forgets
// adopted backing and pins the exactly-once Release on each.
func TestAppendOwnedReleaseOnForget(t *testing.T) {
	t.Run("reset", func(t *testing.T) {
		b := matchBuffer{max: 100}
		lease := &fakeLease{}
		b.appendOwned([]byte("x"), lease)
		b.reset()
		if lease.released != 1 {
			t.Fatalf("released %d times, want 1", lease.released)
		}
		if b.data != nil || b.free != nil {
			t.Fatal("reset left adopted backing attached")
		}
	})
	t.Run("consume-to-empty", func(t *testing.T) {
		b := matchBuffer{max: 100}
		lease := &fakeLease{}
		b.appendOwned([]byte("match"), lease)
		b.consume(5)
		if lease.released != 1 {
			t.Fatalf("released %d times, want 1", lease.released)
		}
	})
	t.Run("take", func(t *testing.T) {
		b := matchBuffer{max: 100}
		lease := &fakeLease{}
		b.appendOwned([]byte("drain"), lease)
		out := b.take()
		if lease.released != 1 {
			t.Fatalf("released %d times, want 1", lease.released)
		}
		if string(out) != "drain" {
			t.Fatalf("take() = %q", out)
		}
		// take copies precisely because the backing may be gone.
		if len(b.data) != 0 && &out[0] == &b.data[0] {
			t.Fatal("take aliased released backing")
		}
	})
	t.Run("realloc-growth", func(t *testing.T) {
		b := matchBuffer{max: 1 << 16}
		lease := &fakeLease{}
		seg := bytes.Repeat([]byte("a"), 64)
		b.appendOwned(seg, lease)
		// A follow-up append that outgrows the 64-byte adopted backing
		// must copy out and release the lease.
		b.appendData(bytes.Repeat([]byte("b"), 256))
		if lease.released != 1 {
			t.Fatalf("released %d times after realloc, want 1", lease.released)
		}
		if b.length() != 64+256 {
			t.Fatalf("length = %d", b.length())
		}
	})
	t.Run("setmax-shrink", func(t *testing.T) {
		b := matchBuffer{max: 1 << 16}
		lease := &fakeLease{}
		b.appendOwned(bytes.Repeat([]byte("c"), 16384), lease)
		forgot := b.setMax(100)
		if lease.released != 1 {
			t.Fatalf("released %d times after shrink realloc, want 1", lease.released)
		}
		if forgot != 16384-100 || b.length() != 100 {
			t.Fatalf("forgot %d, length %d", forgot, b.length())
		}
	})
	t.Run("next-adoption", func(t *testing.T) {
		b := matchBuffer{max: 100}
		first := &fakeLease{}
		b.appendOwned([]byte("one"), first)
		b.consume(3) // window empty again; backing released at consume
		second := &fakeLease{}
		if _, adopted := b.appendOwned([]byte("two"), second); !adopted {
			t.Fatal("second adoption declined")
		}
		if first.released != 1 || second.released != 0 {
			t.Fatalf("leases released (%d, %d), want (1, 0)", first.released, second.released)
		}
		b.reset()
		if second.released != 1 {
			t.Fatalf("second lease released %d times, want 1", second.released)
		}
	})
}

// TestAppendOwnedAdoptionAllocFree pins the zero-copy claim at the gap
// buffer: the adopt → consume cycle performs no heap allocations. The
// lease is held as an interface precisely so this stays true.
func TestAppendOwnedAdoptionAllocFree(t *testing.T) {
	b := matchBuffer{max: 1 << 16}
	lease := &fakeLease{}
	chunk := bytes.Repeat([]byte("z"), 4096)
	avg := testing.AllocsPerRun(200, func() {
		if _, adopted := b.appendOwned(chunk, lease); !adopted {
			panic("adoption declined in steady state")
		}
		b.consume(len(chunk))
	})
	if avg != 0 {
		t.Errorf("adoption cycle allocates %.1f times per run, want 0", avg)
	}
}

// TestAppendOwnedAdoptsFullWindowChunk: an owned chunk of at least
// match_max bytes is adopted even over a live window, because every live
// byte is forgotten anyway. The forgotten count covers the old window and
// the chunk's own overflow, the previous lease is released exactly once,
// and the live bytes are the chunk's last match_max bytes, in place.
func TestAppendOwnedAdoptsFullWindowChunk(t *testing.T) {
	const matchMax = 8
	chunk := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte('a' + i%26)
		}
		return p
	}
	for _, tc := range []struct {
		name   string
		live   func(b *matchBuffer, prev *fakeLease)
		n      int // chunk length
		before int // bytes live before the chunk
	}{
		{"copied-window", func(b *matchBuffer, _ *fakeLease) { b.appendData([]byte("abc")) }, 20, 3},
		{"adopted-window", func(b *matchBuffer, prev *fakeLease) {
			b.appendOwned([]byte("0123456"), prev)
			b.consume(2)
		}, 20, 5},
		{"exactly-max", func(b *matchBuffer, _ *fakeLease) { b.appendData([]byte("xy")) }, matchMax, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := matchBuffer{max: matchMax}
			prev := &fakeLease{}
			tc.live(&b, prev)
			held := b.free != nil
			lease := &fakeLease{}
			p := chunk(tc.n)
			forgot, adopted := b.appendOwned(p, lease)
			if !adopted {
				t.Fatal("chunk of at least match_max bytes was copied, not adopted")
			}
			if want := tc.before + tc.n - matchMax; forgot != want {
				t.Fatalf("forgot %d, want %d", forgot, want)
			}
			if want := p[tc.n-matchMax:]; !bytes.Equal(b.bytes(), want) || &b.bytes()[0] != &want[0] {
				t.Fatalf("live bytes %q, want the chunk's last %d in place", b.bytes(), matchMax)
			}
			if held && prev.released != 1 {
				t.Fatalf("previous lease released %d times, want 1", prev.released)
			}
			if lease.released != 0 {
				t.Fatal("adopted lease released while its backing is live")
			}
			b.reset()
			if lease.released != 1 || (held && prev.released != 1) {
				t.Fatalf("after reset leases released (%d, %d), want (1, 1)", lease.released, prev.released)
			}
		})
	}
}

// TestAppendOwnedFullWindowAllocFree: adopting over a live window — the
// merged-frame steady state of a bulk pull past match_max — allocates
// nothing, where the copying path would reallocate the backing each time.
func TestAppendOwnedFullWindowAllocFree(t *testing.T) {
	b := matchBuffer{max: 2000}
	lease := &fakeLease{}
	chunk := bytes.Repeat([]byte("z"), 8192)
	avg := testing.AllocsPerRun(200, func() {
		if _, adopted := b.appendOwned(chunk, lease); !adopted {
			panic("full-window chunk was not adopted")
		}
	})
	if avg != 0 {
		t.Errorf("full-window adoption allocates %.1f times per run, want 0", avg)
	}
}
