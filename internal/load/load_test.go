package load

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netx"
)

// TestDialogueConservation is the workbench's metamorphic property:
// however the sessions are scheduled — per-session pumps, 1, 2, or 8
// shards — and whichever matcher runs, every dialogue started resolves
// as exactly one of match, timeout, or EOF. A scheduler that loses a
// wakeup strands a dialogue (the run hangs); one that double-delivers
// breaks the sum.
func TestDialogueConservation(t *testing.T) {
	matchers := map[string]core.MatcherMode{
		"rescan":      core.MatcherRescan,
		"incremental": core.MatcherIncremental,
	}
	for name, m := range matchers {
		for _, shards := range []int{0, 1, 2, 8} {
			res, err := Run(Config{
				Sessions:  12,
				Dialogues: 15,
				Shards:    shards,
				Matcher:   m,
				Seed:      42,
			})
			if err != nil {
				t.Fatalf("%s/shards=%d: %v", name, shards, err)
			}
			if res.Errors != 0 {
				t.Errorf("%s/shards=%d: %d dialogue errors", name, shards, res.Errors)
			}
			if got := res.Matches + res.Timeouts + res.EOFs; got != res.Dialogues {
				t.Errorf("%s/shards=%d: matches %d + timeouts %d + EOFs %d = %d, want %d dialogues",
					name, shards, res.Matches, res.Timeouts, res.EOFs, got, res.Dialogues)
			}
			if res.Dialogues != 12*15 {
				t.Errorf("%s/shards=%d: ran %d dialogues, want %d", name, shards, res.Dialogues, 12*15)
			}
			if res.Dropped != 0 {
				t.Errorf("%s/shards=%d: scheduler dropped %d events", name, shards, res.Dropped)
			}
			// The seeded mix must actually exercise every path.
			if res.Matches == 0 || res.Timeouts == 0 || res.EOFs == 0 || res.Overflows == 0 {
				t.Errorf("%s/shards=%d: degenerate mix: %+v", name, shards, res)
			}
		}
	}
}

// TestSeededMixIsDeterministic pins the driver side of determinism: the
// schedule of dialogue kinds is a pure function of the seed, so two
// runs with the same seed start the same dialogues (outcome totals can
// differ only through scheduling of the flaky cut, which the small
// no-flaky config below rules out).
func TestSeededMixIsDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Run(Config{
			Sessions:  3, // ids 0..2: echo, slow, bursty — no flaky worker
			Dialogues: 20,
			Shards:    2,
			Seed:      7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Matches != b.Matches || a.Timeouts != b.Timeouts || a.EOFs != b.EOFs || a.Overflows != b.Overflows {
		t.Errorf("same seed, different outcomes:\n  %+v\n  %+v", a, b)
	}
}

// TestWorkbenchReportsLatency makes sure the histograms the E17 sweep
// depends on are actually fed.
func TestWorkbenchReportsLatency(t *testing.T) {
	res, err := Run(Config{Sessions: 4, Dialogues: 10, Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dialogue.Count != res.Dialogues {
		t.Errorf("dialogue histogram saw %d, want %d", res.Dialogue.Count, res.Dialogues)
	}
	if res.Wakeup.Count == 0 {
		t.Error("wakeup-to-match histogram is empty")
	}
	if res.DialoguesPerSec <= 0 {
		t.Errorf("DialoguesPerSec = %v", res.DialoguesPerSec)
	}
	if len(res.QueueDepthPeak) != 2 {
		t.Errorf("QueueDepthPeak = %v, want one entry per shard", res.QueueDepthPeak)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not measured")
	}
}

// TestNetworkModeConservation reruns the conservation property with the
// workers dialing loopback servers instead of spawning virtual programs:
// same mix, same seeds, same flaky cut — the transport must not be an
// observable. Sharded cells additionally exercise the socket doorbell
// (netx sessions are event-capable, so shards own them with no pump).
func TestNetworkModeConservation(t *testing.T) {
	addrs, stop, err := ServeLoopback(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if !stop(10 * time.Second) {
			t.Error("loopback servers did not drain clean")
		}
	}()
	for _, shards := range []int{0, 4} {
		res, err := Run(Config{
			Sessions:  12,
			Dialogues: 15,
			Shards:    shards,
			Seed:      42,
			Net:       addrs,
		})
		if err != nil {
			t.Fatalf("net/shards=%d: %v", shards, err)
		}
		if res.Errors != 0 {
			t.Errorf("net/shards=%d: %d dialogue errors", shards, res.Errors)
		}
		if got := res.Matches + res.Timeouts + res.EOFs; got != res.Dialogues {
			t.Errorf("net/shards=%d: matches %d + timeouts %d + EOFs %d = %d, want %d dialogues",
				shards, res.Matches, res.Timeouts, res.EOFs, got, res.Dialogues)
		}
		if res.Dropped != 0 {
			t.Errorf("net/shards=%d: scheduler dropped %d events", shards, res.Dropped)
		}
		if res.Matches == 0 || res.Timeouts == 0 || res.EOFs == 0 || res.Overflows == 0 {
			t.Errorf("net/shards=%d: degenerate mix: %+v", shards, res)
		}
	}
}

// TestMuxModeConservation reruns the conservation property in gateway
// mode: every worker's session is a framed stream on a shared connection
// pool to one in-process mux gateway — same mix, same seeds, same flaky
// cut. Beyond the conservation law, this pins the architecture under
// test: all K sessions ride a handful of pooled sockets (MuxConns ≤ the
// configured bound), and the gateway drains clean afterwards.
func TestMuxModeConservation(t *testing.T) {
	gw, err := ServeMuxLoopback(0, 0, netx.MuxServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if !gw.Shutdown(10 * time.Second) {
			t.Error("gateway did not drain clean")
		}
	}()
	for _, shards := range []int{0, 4} {
		res, err := Run(Config{
			Sessions:  12,
			Dialogues: 15,
			Shards:    shards,
			Seed:      42,
			MuxAddrs:  []string{gw.Addr()},
			MuxConns:  2,
		})
		if err != nil {
			t.Fatalf("mux/shards=%d: %v", shards, err)
		}
		if res.Errors != 0 {
			t.Errorf("mux/shards=%d: %d dialogue errors", shards, res.Errors)
		}
		if got := res.Matches + res.Timeouts + res.EOFs; got != res.Dialogues {
			t.Errorf("mux/shards=%d: matches %d + timeouts %d + EOFs %d = %d, want %d dialogues",
				shards, res.Matches, res.Timeouts, res.EOFs, got, res.Dialogues)
		}
		if res.Dropped != 0 {
			t.Errorf("mux/shards=%d: scheduler dropped %d events", shards, res.Dropped)
		}
		if res.Matches == 0 || res.Timeouts == 0 || res.EOFs == 0 || res.Overflows == 0 {
			t.Errorf("mux/shards=%d: degenerate mix: %+v", shards, res)
		}
		if res.MuxConns < 1 || res.MuxConns > 2 {
			t.Errorf("mux/shards=%d: %d pooled connections, want 1..2", shards, res.MuxConns)
		}
		if res.MuxStreamsOpened < uint64(res.Sessions) {
			t.Errorf("mux/shards=%d: only %d streams opened for %d sessions",
				shards, res.MuxStreamsOpened, res.Sessions)
		}
	}
}

// TestSoakModeStopsOnDeadline checks Duration mode terminates without a
// dialogue budget.
func TestSoakModeStopsOnDeadline(t *testing.T) {
	start := time.Now()
	res, err := Run(Config{Sessions: 4, Duration: 200 * time.Millisecond, Shards: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dialogues == 0 {
		t.Error("soak mode ran no dialogues")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("200ms soak took %v", elapsed)
	}
}
