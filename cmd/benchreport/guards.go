package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

// guardKind says how a guard row reads its bound.
type guardKind int

const (
	atMost     guardKind = iota // metric <= bound
	atLeast                     // metric >= bound
	vsBaseline                  // metric <= its value in baseline, plus bound percent
)

// guard is one row of the table benchreport checks after every run: a
// BENCH metric of one experiment against a bound. Rows of experiments
// that did not run are skipped; an experiment that ran without reporting
// the metric fails its row, so renaming a metric cannot retire a guard.
type guard struct {
	exp      string // experiment ID, as Result.ID spells it
	metric   string // key in that result's Metrics
	kind     guardKind
	bound    float64 // the bound; for vsBaseline, the percent budget
	baseline string  // vsBaseline: committed BENCH file, relative to -root
}

// The retired cached evaluator's speedups over the classic one, as E22
// last measured them in BENCH_9.json (the snapshot committed before that
// evaluator was deleted): Tcl eval 25688 ns classic vs 6947 ns cached,
// expr 3753 ns vs 777 ns. E22's rows require the vm to stay 3x faster
// than the cached evaluator, read through these.
const (
	bench9CachedEvalVsClassic = 25688.0 / 6947.0 // ≈ 3.70
	bench9CachedExprVsClassic = 3753.0 / 777.0   // ≈ 4.83
)

// The copying ingest path's figures at 10k sharded sessions, as E19 last
// measured them in BENCH_6.json before that path was deleted. E19's
// memory rows keep the bar that path set: a drop of at least 40%, so at
// most 60% of each.
const (
	bench6CopyingBytesPerDlg = 1278.6444
	bench6CopyingAllocsPer1k = 1388.8
)

var guards = []guard{
	// A present-but-disabled flight recorder may cost the expect hot loop
	// at most 2% per wakeup (median paired ratio).
	{exp: "E16", metric: "trace_overhead_disabled_pct", kind: atMost, bound: 2},
	// The 1k-session sharded p99 wakeup-to-match latency may regress at
	// most 10% against the committed snapshot.
	{exp: "E17", metric: "p99_wakeup_ns_1000_sharded", kind: vsBaseline, bound: 10, baseline: "BENCH_4.json"},
	// 10k sharded socket sessions may cost at most 2x the 64-session
	// goroutine baseline per dialogue.
	{exp: "E18", metric: "ratio_10k_sharded_vs_64_goroutine_net", kind: atMost, bound: 2},
	// Zero-copy ingest at 10k sharded sessions: copied bytes and ingest
	// allocations per dialogue at most 60% of the copying path's, and
	// ingest goroutines O(shards) — at most 256 added by spawning the 10k
	// sessions, not one reader per connection.
	{exp: "E19", metric: "bytes_copied_per_dialogue_10000_sharded_zerocopy", kind: atMost, bound: 0.6 * bench6CopyingBytesPerDlg},
	{exp: "E19", metric: "ingest_allocs_per_1k_dialogues_10000_sharded_zerocopy", kind: atMost, bound: 0.6 * bench6CopyingAllocsPer1k},
	{exp: "E19", metric: "ingest_goroutines_10k_sharded", kind: atMost, bound: 256},
	// A journal-armed soak may cost at most 10% more per dialogue than
	// ring-only, and the checkpoint/restore round-trip p99 may regress at
	// most 25% against the committed snapshot.
	{exp: "E20", metric: "journal_overhead_pct", kind: atMost, bound: 10},
	{exp: "E20", metric: "ckpt_roundtrip_p99_ns", kind: vsBaseline, bound: 25, baseline: "BENCH_7.json"},
	// Scraping /metrics at 1 Hz may cost at most 3% per dialogue, and an
	// armed-but-unscraped plane at most a third of that.
	{exp: "E21", metric: "telemetry_scraped_overhead_pct", kind: atMost, bound: 3},
	{exp: "E21", metric: "telemetry_armed_overhead_pct", kind: atMost, bound: 1},
	// The vm stays at least 3x faster than the retired cached evaluator on
	// eval and expr, and no differential-sweep script diverges from the
	// classic referee.
	{exp: "E22", metric: "vm_eval_speedup_vs_classic", kind: atLeast, bound: 3 * bench9CachedEvalVsClassic},
	{exp: "E22", metric: "vm_expr_speedup_vs_classic", kind: atLeast, bound: 3 * bench9CachedExprVsClassic},
	{exp: "E22", metric: "vm_conformance_divergences", kind: atMost, bound: 0},
	// 100k gateway sessions may cost at most 2x the committed 10k
	// one-socket-per-session cell per dialogue, and every gateway drains
	// clean.
	{exp: "E23", metric: "ratio_100k_mux_vs_10k_net_baseline", kind: atMost, bound: 2},
	{exp: "E23", metric: "mux_dirty_drains", kind: atMost, bound: 0},
}

// snapshot is a committed baseline file as it was before this run's
// -json rewrote it.
type snapshot struct {
	data []byte
	err  error
}

// writeAndGuard writes results to jsonPath (when set) and then checks
// every row whose experiment ran, reporting each to w. It returns false
// if any row failed. The baselines are read first: check.sh points -json
// at the file a vsBaseline row compares against, so reading it after the
// write would compare the run against itself and pass forever.
func writeAndGuard(w io.Writer, rows []guard, results []experiments.Result, root, jsonPath string) (bool, error) {
	snaps := map[string]snapshot{}
	for _, g := range rows {
		if g.kind == vsBaseline && find(results, g.exp) != nil {
			var s snapshot
			s.data, s.err = os.ReadFile(filepath.Join(root, g.baseline))
			snaps[g.baseline] = s
		}
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return false, fmt.Errorf("marshal: %w", err)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
		fmt.Fprintf(w, "benchreport: wrote %s (%d experiments)\n", jsonPath, len(results))
	}
	return checkGuards(w, rows, results, snaps), nil
}

// checkGuards checks every row whose experiment is among results.
func checkGuards(w io.Writer, rows []guard, results []experiments.Result, snaps map[string]snapshot) bool {
	ok := true
	for _, g := range rows {
		r := find(results, g.exp)
		if r == nil {
			continue
		}
		name := g.exp + " " + g.metric
		v, found := r.Metrics[g.metric]
		if !found {
			fmt.Fprintf(w, "benchreport: guard %s FAILED: %s ran but reported no %s\n", name, g.exp, g.metric)
			ok = false
			continue
		}
		var pass bool
		var bar string
		switch g.kind {
		case atMost:
			pass, bar = v <= g.bound, fmt.Sprintf("at most %.6g", g.bound)
		case atLeast:
			pass, bar = v >= g.bound, fmt.Sprintf("at least %.6g", g.bound)
		case vsBaseline:
			s := snaps[g.baseline]
			if s.err != nil {
				fmt.Fprintf(w, "benchreport: guard %s: no baseline %s (%v) — bootstrap pass\n", name, g.baseline, s.err)
				continue
			}
			var base []experiments.Result
			if err := json.Unmarshal(s.data, &base); err != nil {
				fmt.Fprintf(w, "benchreport: guard %s FAILED: unreadable baseline %s: %v\n", name, g.baseline, err)
				ok = false
				continue
			}
			var ref float64
			if b := find(base, g.exp); b != nil {
				ref = b.Metrics[g.metric]
			}
			if ref <= 0 {
				fmt.Fprintf(w, "benchreport: guard %s: baseline %s lacks it — bootstrap pass\n", name, g.baseline)
				continue
			}
			limit := ref * (1 + g.bound/100)
			pass = v <= limit
			bar = fmt.Sprintf("at most %.6g: %+.6g%% over %.6g in %s; now %+.1f%%", limit, g.bound, ref, g.baseline, (v/ref-1)*100)
		}
		verdict := "ok"
		if !pass {
			verdict, ok = "FAILED", false
		}
		fmt.Fprintf(w, "benchreport: guard %s = %.6g %s (%s)\n", name, v, verdict, bar)
	}
	return ok
}

// find returns the result of experiment id, or nil if it did not run.
func find(results []experiments.Result, id string) *experiments.Result {
	for i := range results {
		if strings.EqualFold(results[i].ID, id) {
			return &results[i]
		}
	}
	return nil
}
