package clock

import (
	"testing"
	"time"
)

func TestNowIsMonotonic(t *testing.T) {
	prev := Now()
	if prev < 0 {
		t.Fatalf("Now() = %d, want >= 0", prev)
	}
	for k := 0; k < 1000; k++ {
		cur := Now()
		if cur < prev {
			t.Fatalf("Now went backwards: %d after %d", cur, prev)
		}
		prev = cur
	}
}

func TestNowTracksElapsedTime(t *testing.T) {
	// Both clocks come from the same monotonic source, and the wall stamp
	// brackets the Now pair, so the Now interval can never be the longer.
	wall := time.Now()
	start := Now()
	time.Sleep(5 * time.Millisecond)
	got := time.Duration(Now() - start)
	want := time.Since(wall)
	if got < 5*time.Millisecond || got > want {
		t.Fatalf("Now advanced %v across a sleep that took %v", got, want)
	}
}

func BenchmarkNow(b *testing.B) {
	for k := 0; k < b.N; k++ {
		Now()
	}
}

func BenchmarkTimeNowSince(b *testing.B) {
	for k := 0; k < b.N; k++ {
		_ = time.Since(time.Now())
	}
}
