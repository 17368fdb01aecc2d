package experiments

import (
	"fmt"

	"repro/internal/load"
	"repro/internal/metrics"
)

// ZeroCopyIngest is experiment E19: the E18 loopback socket sweep rerun
// on the zero-copy ingest path — pooled read segments whose ownership
// transfers whole from the socket reader through the connection inbox
// into the match buffer's backing, with the per-connection reader
// goroutines collapsed into one readiness loop per shard on linux.
//
// The guards on this sweep (cmd/benchreport/guards.go) bound the 10k
// sharded cell absolutely: copied bytes and ingest allocations per
// dialogue at most 60% of the copying ingest path's figures in
// BENCH_6.json (1278.64 B, 1388.8 allocs per 1k dialogues) — that path
// was this sweep's referee until it was deleted — and at most 256
// goroutines added by spawning the 10k sessions: O(shards), not
// O(connections).
//
// Workers run with load.Config.NoWrap: a faultify-wrapped stream hides
// the transport capabilities, so its session keeps a pump goroutine
// instead of joining a shard, which the conformance equivalence matrix
// covers; here it would only blur the guards with a constant they are
// not measuring.
func ZeroCopyIngest(repoRoot string) (Result, error) {
	const (
		shardCount = 8
		seed       = 1990
	)

	d, err := startExpectd(repoRoot)
	if err != nil {
		return Result{}, fmt.Errorf("e19: %w", err)
	}
	defer d.kill()

	addrs := &load.NetAddrs{Echo: d.addrs["echo"], Slow: d.addrs["slow"], Bursty: d.addrs["bursty"]}

	type cell struct {
		sessions int
		mode     string
		shards   int
		res      *load.Result
		nsPerD   float64
	}
	cells := []cell{
		{64, "goroutine", 0, nil, 0},
		{64, "sharded", shardCount, nil, 0},
		{1000, "goroutine", 0, nil, 0},
		{1000, "sharded", shardCount, nil, 0},
		{10000, "goroutine", 0, nil, 0},
		{10000, "sharded", shardCount, nil, 0},
	}

	for i := range cells {
		c := &cells[i]
		dialogues := 4000 / c.sessions
		if dialogues < 2 {
			dialogues = 2
		}
		res, err := load.Run(load.Config{
			Sessions:  c.sessions,
			Dialogues: dialogues,
			Shards:    c.shards,
			Seed:      seed,
			Net:       addrs,
			NoWrap:    true,
			Prof:      metrics.NewProfiler(),
		})
		if err != nil {
			return Result{}, fmt.Errorf("e19 %s/%d sessions: %w", c.mode, c.sessions, err)
		}
		if res.Errors != 0 || res.Dropped != 0 {
			return Result{}, fmt.Errorf("e19 %s/%d sessions: %d errors, %d dropped",
				c.mode, c.sessions, res.Errors, res.Dropped)
		}
		c.res = res
		c.nsPerD = float64(res.Elapsed.Nanoseconds()) / float64(res.Dialogues)
	}

	served, err := d.stop()
	if err != nil {
		return Result{}, fmt.Errorf("e19 shutdown: %w", err)
	}

	t := &table{header: []string{"sessions", "scheduler", "copied B/dlg", "allocs/1k dlg", "spawn goroutines", "ns/dialogue"}}
	m := map[string]float64{}
	for i := range cells {
		c := &cells[i]
		t.add(fmt.Sprintf("%d", c.sessions), c.mode,
			fmt.Sprintf("%.1f", c.res.BytesCopiedPerDlg),
			fmt.Sprintf("%.1f", c.res.IngestAllocsPer1k),
			fmt.Sprintf("%d", c.res.SpawnGoroutines),
			fmt.Sprintf("%.0f", c.nsPerD))
		// The zerocopy suffix keeps BENCH_6.json's metric names.
		key := fmt.Sprintf("%d_%s_zerocopy", c.sessions, c.mode)
		m["ns_per_dialogue_"+key] = c.nsPerD
		m["bytes_copied_per_dialogue_"+key] = c.res.BytesCopiedPerDlg
		m["ingest_allocs_per_1k_dialogues_"+key] = c.res.IngestAllocsPer1k
		m["spawn_goroutines_"+key] = float64(c.res.SpawnGoroutines)
		if total := c.res.BytesCopied + c.res.BytesHandedOff; total > 0 {
			m["handoff_share_pct_"+key] = 100 * float64(c.res.BytesHandedOff) / float64(total)
		}
	}
	m["expectd_served_sessions"] = float64(served)

	zc := &cells[len(cells)-1] // 10k sharded
	m["ingest_goroutines_10k_sharded"] = float64(zc.res.SpawnGoroutines)
	if zc.res.SegmentLeases > 0 {
		m["segment_reuse_pct_10k"] = 100 * float64(zc.res.SegmentReuses) / float64(zc.res.SegmentLeases)
	}

	return Result{
		ID:    "E19",
		Title: "zero-copy socket ingest via segment ownership transfer",
		PaperClaim: `the original expect moves every byte of child output through multiple ` +
			`buffers per read; this measures what pooled-buffer ownership transfer and a ` +
			`per-shard readiness loop save at 10k-connection scale`,
		Table:   t.String(),
		Metrics: m,
		Verdict: fmt.Sprintf(
			"at 10k sharded socket sessions, ownership transfer copies %.1f B per dialogue with %.1f ingest allocations per 1k dialogues (the deleted copying path: 1279 B, 1388.8), and spawning the sessions added %d goroutines; expectd drained clean after %d sessions",
			zc.res.BytesCopiedPerDlg, zc.res.IngestAllocsPer1k, zc.res.SpawnGoroutines, served),
	}, nil
}
