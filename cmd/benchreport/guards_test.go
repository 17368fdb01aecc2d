package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// result is one experiment's report carrying the given metrics.
func result(id string, metrics map[string]float64) experiments.Result {
	return experiments.Result{ID: id, Metrics: metrics}
}

func benchJSON(t *testing.T, results ...experiments.Result) []byte {
	t.Helper()
	data, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func check(rows []guard, results []experiments.Result, snaps map[string]snapshot) (bool, string) {
	var out strings.Builder
	ok := checkGuards(&out, rows, results, snaps)
	return ok, out.String()
}

// TestGuardRowsBoundary: every row of the shipped table passes with its
// metric exactly at the bound and fails one float step past it.
func TestGuardRowsBoundary(t *testing.T) {
	const ref = 2048.0 // a vsBaseline row's committed value
	for _, g := range guards {
		limit, past := g.bound, math.Inf(1)
		if g.kind == atLeast {
			past = math.Inf(-1)
		}
		snaps := map[string]snapshot{}
		if g.kind == vsBaseline {
			limit = ref * (1 + g.bound/100)
			snaps[g.baseline] = snapshot{data: benchJSON(t, result(g.exp, map[string]float64{g.metric: ref}))}
		}
		rows := []guard{g}
		at := []experiments.Result{result(g.exp, map[string]float64{g.metric: limit})}
		if ok, out := check(rows, at, snaps); !ok {
			t.Errorf("%s %s at its bound %v failed:\n%s", g.exp, g.metric, limit, out)
		}
		beyond := []experiments.Result{result(g.exp, map[string]float64{g.metric: math.Nextafter(limit, past)})}
		if ok, out := check(rows, beyond, snaps); ok {
			t.Errorf("%s %s just past its bound %v passed:\n%s", g.exp, g.metric, limit, out)
		}
	}
}

// TestGuardTableBounds pins each row's bound: every guard the table
// replaced survives with an equal or tighter bound.
func TestGuardTableBounds(t *testing.T) {
	want := map[string]struct {
		kind  guardKind
		bound float64
	}{
		"E16 trace_overhead_disabled_pct":                           {atMost, 2},
		"E17 p99_wakeup_ns_1000_sharded":                            {vsBaseline, 10},
		"E18 ratio_10k_sharded_vs_64_goroutine_net":                 {atMost, 2},
		"E19 bytes_copied_per_dialogue_10000_sharded_zerocopy":      {atMost, 767.2},
		"E19 ingest_allocs_per_1k_dialogues_10000_sharded_zerocopy": {atMost, 833.3},
		"E19 ingest_goroutines_10k_sharded":                         {atMost, 256},
		"E20 journal_overhead_pct":                                  {atMost, 10},
		"E20 ckpt_roundtrip_p99_ns":                                 {vsBaseline, 25},
		"E21 telemetry_scraped_overhead_pct":                        {atMost, 3},
		"E21 telemetry_armed_overhead_pct":                          {atMost, 1},
		"E22 vm_eval_speedup_vs_classic":                            {atLeast, 3 * 25688.0 / 6947.0},
		"E22 vm_expr_speedup_vs_classic":                            {atLeast, 3 * 3753.0 / 777.0},
		"E22 vm_conformance_divergences":                            {atMost, 0},
		"E23 ratio_100k_mux_vs_10k_net_baseline":                    {atMost, 2},
		"E23 mux_dirty_drains":                                      {atMost, 0},
	}
	registered := map[string]bool{}
	for _, spec := range experiments.All(".") {
		registered[spec.ID] = true
	}
	for _, g := range guards {
		name := g.exp + " " + g.metric
		w, ok := want[name]
		if !ok {
			t.Errorf("unexpected row %s", name)
			continue
		}
		delete(want, name)
		if !registered[g.exp] {
			t.Errorf("row %s names no registered experiment", name)
		}
		if g.kind != w.kind {
			t.Errorf("row %s kind = %d, want %d", name, g.kind, w.kind)
		}
		if (g.kind == atLeast && g.bound < w.bound) || (g.kind != atLeast && g.bound > w.bound) {
			t.Errorf("row %s bound %v is looser than %v", name, g.bound, w.bound)
		}
	}
	for name := range want {
		t.Errorf("row %s is missing", name)
	}
}

func TestGuardCases(t *testing.T) {
	reg := guard{exp: "E17", metric: "p99", kind: vsBaseline, bound: 10, baseline: "BENCH_4.json"}
	abs := guard{exp: "E16", metric: "pct", kind: atMost, bound: 2}
	ran := []experiments.Result{result("E17", map[string]float64{"p99": 4096})}
	for _, tc := range []struct {
		name    string
		rows    []guard
		results []experiments.Result
		snaps   map[string]snapshot
		ok      bool
		say     string
	}{{
		name:    "ran without the metric",
		rows:    []guard{abs},
		results: []experiments.Result{result("E16", map[string]float64{"renamed_pct": 0})},
		ok:      false, say: "E16 ran but reported no pct",
	}, {
		name:    "did not run",
		rows:    []guard{abs, reg},
		results: []experiments.Result{result("E5", map[string]float64{"pct": 99})},
		ok:      true, say: "",
	}, {
		name:    "experiment ids match case-insensitively",
		rows:    []guard{abs},
		results: []experiments.Result{result("e16", map[string]float64{"pct": 3})},
		ok:      false, say: "FAILED",
	}, {
		name:    "missing baseline file",
		rows:    []guard{reg},
		results: ran,
		snaps:   map[string]snapshot{"BENCH_4.json": {err: os.ErrNotExist}},
		ok:      true, say: "bootstrap pass",
	}, {
		name:    "baseline lacks the metric",
		rows:    []guard{reg},
		results: ran,
		snaps:   map[string]snapshot{"BENCH_4.json": {data: benchJSON(t, result("E17", map[string]float64{"other": 1}))}},
		ok:      true, say: "bootstrap pass",
	}, {
		name:    "unparsable baseline",
		rows:    []guard{reg},
		results: ran,
		snaps:   map[string]snapshot{"BENCH_4.json": {data: []byte("{not json")}},
		ok:      false, say: "unreadable baseline",
	}, {
		name:    "regression past the budget",
		rows:    []guard{reg},
		results: ran,
		snaps:   map[string]snapshot{"BENCH_4.json": {data: benchJSON(t, result("E17", map[string]float64{"p99": 2048}))}},
		ok:      false, say: "+100.0%",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			ok, out := check(tc.rows, tc.results, tc.snaps)
			if ok != tc.ok || !strings.Contains(out, tc.say) {
				t.Errorf("ok = %v, want %v; output %q should contain %q", ok, tc.ok, out, tc.say)
			}
			if tc.say == "" && out != "" {
				t.Errorf("rows of experiments that did not run printed %q", out)
			}
		})
	}
}

// TestWriteAndGuardReadsBaselineFirst: with -json pointed at the file a
// row compares against, the row must see the committed value, not the
// one this run writes over it.
func TestWriteAndGuardReadsBaselineFirst(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "BENCH_4.json")
	if err := os.WriteFile(path, benchJSON(t, result("E17", map[string]float64{"p99": 2048})), 0o644); err != nil {
		t.Fatal(err)
	}
	rows := []guard{{exp: "E17", metric: "p99", kind: vsBaseline, bound: 10, baseline: "BENCH_4.json"}}
	results := []experiments.Result{result("E17", map[string]float64{"p99": 4096})}
	var out strings.Builder
	ok, err := writeAndGuard(&out, rows, results, root, path)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("a +100%% regression passed against the file it rewrote:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var written []experiments.Result
	if err := json.Unmarshal(data, &written); err != nil || len(written) != 1 || written[0].Metrics["p99"] != 4096 {
		t.Fatalf("-json wrote %s (err %v), want this run's results", data, err)
	}
}
