// Command benchreport regenerates the paper's evaluation: every
// quantitative claim in §7 (throughput, CPU shares, code sizes, process
// counts) plus the measurable claims of §3.1, §5.4 and §5.9, printed as
// the tables EXPERIMENTS.md records.
//
//	benchreport                 run everything
//	benchreport -exp e5         run one experiment
//	benchreport -exp e15,e16    run a comma-separated subset
//	benchreport -root DIR       repository root for the code-size experiment
//	benchreport -json FILE      also write the results as JSON
//	benchreport -guard PCT      fail if E16's disabled-recorder overhead
//	                            exceeds PCT percent (the check.sh gate)
//	benchreport -baseline FILE  compare against a committed results JSON
//	benchreport -p99guard PCT   with -baseline: fail if E17's 1k-session
//	                            sharded p99 wakeup-to-match regressed by
//	                            more than PCT percent vs the baseline
//	benchreport -netguard X     fail if E18's 10k-session sharded socket
//	                            per-dialogue cost exceeds X times the
//	                            64-session goroutine socket baseline
//	benchreport -memguard PCT   fail if E19's copied-bytes or ingest-alloc
//	                            per-dialogue drop at 10k sharded sessions
//	                            falls short of PCT percent vs the legacy
//	                            copying referee
//	benchreport -goroguard N    fail if E19's ingest goroutines at 10k
//	                            connections (peak minus drivers) exceed N
//	benchreport -replayguard P  fail if E20's journaled-soak per-dialogue
//	                            overhead exceeds P percent vs ring-only
//	benchreport -ckptguard PCT  with -baseline: fail if E20's
//	                            checkpoint/restore round-trip p99
//	                            regressed by more than PCT percent vs
//	                            the committed BENCH_7.json
//	benchreport -statsguard P   fail if E21's 1 Hz-scraped telemetry
//	                            overhead exceeds P percent per dialogue,
//	                            or armed-but-unscraped exceeds P/3
//	benchreport -vmguard X      fail if E22's bytecode vm is not at least
//	                            X times faster than the retired cached
//	                            evaluator's committed BENCH_9 figures on
//	                            eval and expr, or if any script in the
//	                            differential sweep diverges from classic
//	benchreport -muxguard X     fail if E23's 100k-session gateway
//	                            per-dialogue cost exceeds X times the
//	                            committed 10k socket baseline, or if any
//	                            expectd gateway drained dirty
//	benchreport -cpuprofile F   write a CPU profile of the run to F
//	benchreport -memprofile F   write an allocation profile of the run to F
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

// The retired cached evaluator's speedups over the classic one, as E22
// last measured them in BENCH_9.json (the snapshot committed before that
// evaluator was deleted): Tcl eval 25688 ns classic vs 6947 ns cached,
// expr 3753 ns vs 777 ns. -vmguard divides E22's
// vm-over-classic speedups by these, so its bar keeps reading as "times
// faster than the cached evaluator".
const (
	bench9CachedEvalVsClassic = 25688.0 / 6947.0 // ≈ 3.70
	bench9CachedExprVsClassic = 3753.0 / 777.0   // ≈ 4.83
)

func main() {
	var (
		exp         = flag.String("exp", "", "run only these experiment ids (comma-separated, e.g. e5 or e15,e16)")
		root        = flag.String("root", ".", "repository root (for the code-size experiment)")
		jsonPath    = flag.String("json", "", "write the results to this file as JSON")
		guard       = flag.Float64("guard", 0, "fail when E16's disabled-recorder overhead exceeds this percentage (0 disables)")
		baseline    = flag.String("baseline", "", "committed results JSON to regression-check against")
		p99guard    = flag.Float64("p99guard", 0, "with -baseline: fail when E17's 1k-session sharded p99 wakeup latency regresses by more than this percentage (0 disables)")
		netguard    = flag.Float64("netguard", 0, "fail when E18's 10k-sharded vs 64-goroutine socket per-dialogue ratio exceeds this factor (0 disables)")
		memguard    = flag.Float64("memguard", 0, "fail when E19's copied-bytes or ingest-alloc drop at 10k sharded sessions is below this percentage (0 disables)")
		goroguard   = flag.Float64("goroguard", 0, "fail when E19's ingest goroutines at 10k connections exceed this count (0 disables)")
		replayguard = flag.Float64("replayguard", 0, "fail when E20's journaled-soak per-dialogue overhead exceeds this percentage (0 disables)")
		ckptguard   = flag.Float64("ckptguard", 0, "with -baseline: fail when E20's checkpoint/restore round-trip p99 regresses by more than this percentage (0 disables)")
		statsguard  = flag.Float64("statsguard", 0, "fail when E21's scraped telemetry overhead exceeds this percentage per dialogue, or armed-but-unscraped exceeds a third of it (0 disables)")
		vmguard     = flag.Float64("vmguard", 0, "fail when E22's bytecode vm eval or expr speedup over the retired cached evaluator (its vm-over-classic speedup divided by the cached evaluator's BENCH_9 one) is below this factor, or its differential sweep diverges (0 disables)")
		muxguard    = flag.Float64("muxguard", 0, "fail when E23's 100k-session gateway per-dialogue ratio vs the 10k socket baseline exceeds this factor, or any gateway drained dirty (0 disables)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile  = flag.String("memprofile", "", "write an allocation profile taken after the run to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: memprofile: %v\n", err)
			}
		}()
	}

	wanted := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[strings.ToLower(id)] = true
		}
	}

	specs := experiments.All(*root)
	var results []experiments.Result
	for _, spec := range specs {
		if len(wanted) > 0 && !wanted[strings.ToLower(spec.ID)] {
			continue
		}
		r, err := spec.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %s: %v\n", spec.ID, err)
			os.Exit(1)
		}
		results = append(results, r)
		fmt.Println(r.Format())
	}
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "benchreport: no experiment %q; available:", *exp)
		for _, spec := range specs {
			fmt.Fprintf(os.Stderr, " %s", spec.ID)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}

	// Snapshot the baseline BEFORE -json rewrites it: check.sh points
	// -baseline and -json at the same committed file, so reading it after
	// the write would compare the run against itself and pass forever.
	base := baselineSnapshot{path: *baseline}
	if *baseline != "" {
		base.data, base.err = os.ReadFile(*baseline)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: marshal: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchreport: wrote %s (%d experiments)\n", *jsonPath, len(results))
	}

	if *guard > 0 {
		guarded := false
		for _, r := range results {
			overhead, ok := r.Metrics["trace_overhead_disabled_pct"]
			if !ok {
				continue
			}
			guarded = true
			if overhead > *guard {
				fmt.Fprintf(os.Stderr,
					"benchreport: trace-overhead guard FAILED: disabled recorder costs %.1f%% per wakeup (budget %.1f%%)\n",
					overhead, *guard)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr,
				"benchreport: trace-overhead guard ok: disabled recorder %.1f%% per wakeup (budget %.1f%%)\n",
				overhead, *guard)
		}
		if !guarded {
			fmt.Fprintln(os.Stderr, "benchreport: -guard set but E16 did not run; add e16 to -exp")
			os.Exit(2)
		}
	}

	if *p99guard > 0 {
		if *baseline == "" {
			fmt.Fprintln(os.Stderr, "benchreport: -p99guard needs -baseline FILE")
			os.Exit(2)
		}
		checkBaselineGuard(base, results, *p99guard,
			"p99_wakeup_ns_1000_sharded", "p99 guard", "1k-session sharded p99 wakeup", "e17")
	}

	if *netguard > 0 {
		const metric = "ratio_10k_sharded_vs_64_goroutine_net"
		guarded := false
		for _, r := range results {
			ratio, ok := r.Metrics[metric]
			if !ok {
				continue
			}
			guarded = true
			if ratio > *netguard {
				fmt.Fprintf(os.Stderr,
					"benchreport: net-scaling guard FAILED: 10k sharded socket sessions cost %.2fx the 64-session baseline (bar %.2fx)\n",
					ratio, *netguard)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr,
				"benchreport: net-scaling guard ok: 10k sharded socket sessions at %.2fx the 64-session baseline (bar %.2fx)\n",
				ratio, *netguard)
		}
		if !guarded {
			fmt.Fprintln(os.Stderr, "benchreport: -netguard set but E18 did not run; add e18 to -exp")
			os.Exit(2)
		}
	}

	if *memguard > 0 {
		guarded := false
		for _, r := range results {
			copied, ok1 := r.Metrics["bytes_copied_drop_pct_10k"]
			allocs, ok2 := r.Metrics["ingest_allocs_drop_pct_10k"]
			if !ok1 || !ok2 {
				continue
			}
			guarded = true
			if copied < *memguard || allocs < *memguard {
				fmt.Fprintf(os.Stderr,
					"benchreport: mem guard FAILED: zero-copy ingest drops copied bytes %.0f%% and ingest allocs %.0f%% per dialogue at 10k sharded sessions (bar %.0f%% each)\n",
					copied, allocs, *memguard)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr,
				"benchreport: mem guard ok: copied bytes -%.0f%%, ingest allocs -%.0f%% per dialogue at 10k sharded sessions (bar %.0f%% each)\n",
				copied, allocs, *memguard)
		}
		if !guarded {
			fmt.Fprintln(os.Stderr, "benchreport: -memguard set but E19 did not run; add e19 to -exp")
			os.Exit(2)
		}
	}

	if *goroguard > 0 {
		guarded := false
		for _, r := range results {
			goro, ok := r.Metrics["ingest_goroutines_10k_sharded"]
			if !ok {
				continue
			}
			guarded = true
			if goro > *goroguard {
				fmt.Fprintf(os.Stderr,
					"benchreport: goroutine guard FAILED: %.0f ingest goroutines above the 10k drivers (ceiling %.0f) — O(conns) ingest is back\n",
					goro, *goroguard)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr,
				"benchreport: goroutine guard ok: %.0f ingest goroutines above the 10k drivers (ceiling %.0f)\n",
				goro, *goroguard)
		}
		if !guarded {
			fmt.Fprintln(os.Stderr, "benchreport: -goroguard set but E19 did not run; add e19 to -exp")
			os.Exit(2)
		}
	}

	if *replayguard > 0 {
		guarded := false
		for _, r := range results {
			overhead, ok := r.Metrics["journal_overhead_pct"]
			if !ok {
				continue
			}
			guarded = true
			if overhead > *replayguard {
				fmt.Fprintf(os.Stderr,
					"benchreport: replay guard FAILED: journaled soak costs %+.1f%% per dialogue vs ring-only (budget %.1f%%)\n",
					overhead, *replayguard)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr,
				"benchreport: replay guard ok: journaled soak %+.1f%% per dialogue vs ring-only (budget %.1f%%)\n",
				overhead, *replayguard)
		}
		if !guarded {
			fmt.Fprintln(os.Stderr, "benchreport: -replayguard set but E20 did not run; add e20 to -exp")
			os.Exit(2)
		}
	}

	if *ckptguard > 0 {
		if *baseline == "" {
			fmt.Fprintln(os.Stderr, "benchreport: -ckptguard needs -baseline FILE")
			os.Exit(2)
		}
		checkBaselineGuard(base, results, *ckptguard,
			"ckpt_roundtrip_p99_ns", "ckpt guard", "checkpoint/restore round-trip p99", "e20")
	}

	if *statsguard > 0 {
		armedBudget := *statsguard / 3
		guarded := false
		for _, r := range results {
			armed, ok1 := r.Metrics["telemetry_armed_overhead_pct"]
			scraped, ok2 := r.Metrics["telemetry_scraped_overhead_pct"]
			if !ok1 || !ok2 {
				continue
			}
			guarded = true
			if scraped > *statsguard || armed > armedBudget {
				fmt.Fprintf(os.Stderr,
					"benchreport: stats guard FAILED: telemetry costs %+.1f%% per dialogue armed (budget %.1f%%), %+.1f%% scraped at 1 Hz (budget %.1f%%)\n",
					armed, armedBudget, scraped, *statsguard)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr,
				"benchreport: stats guard ok: telemetry %+.1f%% per dialogue armed (budget %.1f%%), %+.1f%% scraped at 1 Hz (budget %.1f%%)\n",
				armed, armedBudget, scraped, *statsguard)
		}
		if !guarded {
			fmt.Fprintln(os.Stderr, "benchreport: -statsguard set but E21 did not run; add e21 to -exp")
			os.Exit(2)
		}
	}

	if *vmguard > 0 {
		guarded := false
		for _, r := range results {
			evalVsClassic, ok1 := r.Metrics["vm_eval_speedup_vs_classic"]
			exprVsClassic, ok2 := r.Metrics["vm_expr_speedup_vs_classic"]
			diverged, ok3 := r.Metrics["vm_conformance_divergences"]
			if !ok1 || !ok2 || !ok3 {
				continue
			}
			guarded = true
			if diverged > 0 {
				fmt.Fprintf(os.Stderr,
					"benchreport: vm guard FAILED: %d differential-sweep scripts diverge from the classic referee\n",
					int(diverged))
				os.Exit(1)
			}
			evalX := evalVsClassic / bench9CachedEvalVsClassic
			exprX := exprVsClassic / bench9CachedExprVsClassic
			if evalX < *vmguard || exprX < *vmguard {
				fmt.Fprintf(os.Stderr,
					"benchreport: vm guard FAILED: vm is %.1fx (eval) / %.1fx (expr) vs the BENCH_9 cached evaluator (bar %.1fx)\n",
					evalX, exprX, *vmguard)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr,
				"benchreport: vm guard ok: vm %.1fx (eval) / %.1fx (expr) vs the BENCH_9 cached evaluator (bar %.1fx), 0 divergences\n",
				evalX, exprX, *vmguard)
		}
		if !guarded {
			fmt.Fprintln(os.Stderr, "benchreport: -vmguard set but E22 did not run; add e22 to -exp")
			os.Exit(2)
		}
	}

	if *muxguard > 0 {
		guarded := false
		for _, r := range results {
			ratio, ok1 := r.Metrics["ratio_100k_mux_vs_10k_net_baseline"]
			dirty, ok2 := r.Metrics["mux_dirty_drains"]
			if !ok1 || !ok2 {
				continue
			}
			guarded = true
			if dirty > 0 {
				fmt.Fprintf(os.Stderr,
					"benchreport: mux guard FAILED: %d expectd gateway(s) did not drain clean under 100k live streams\n",
					int(dirty))
				os.Exit(1)
			}
			if ratio > *muxguard {
				fmt.Fprintf(os.Stderr,
					"benchreport: mux guard FAILED: 100k gateway sessions cost %.2fx the 10k socket baseline per dialogue (bar %.2fx)\n",
					ratio, *muxguard)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr,
				"benchreport: mux guard ok: 100k gateway sessions at %.2fx the 10k socket baseline per dialogue (bar %.2fx), all drains clean\n",
				ratio, *muxguard)
		}
		if !guarded {
			fmt.Fprintln(os.Stderr, "benchreport: -muxguard set but E23 did not run; add e23 to -exp")
			os.Exit(2)
		}
	}
}

// baselineSnapshot is the committed baseline file as it was before this
// run rewrote it with -json. Guards must compare against the snapshot,
// never re-read the path.
type baselineSnapshot struct {
	path string
	data []byte
	err  error
}

// checkBaselineGuard compares one nanosecond metric of the current run
// against a committed baseline JSON, failing past pct percent regression.
// A missing baseline file or metric is the bootstrap case: warn and pass,
// so the first run that commits the snapshot doesn't guard against
// itself.
func checkBaselineGuard(base baselineSnapshot, results []experiments.Result, pct float64, metric, guardName, what, expID string) {
	var cur float64
	found := false
	for _, r := range results {
		if v, ok := r.Metrics[metric]; ok {
			cur, found = v, true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "benchreport: %s set but the experiment did not run; add %s to -exp\n", guardName, expID)
		os.Exit(2)
	}
	if base.err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %s: no baseline at %s (%v) — bootstrap pass\n", guardName, base.path, base.err)
		return
	}
	var baseResults []experiments.Result
	if err := json.Unmarshal(base.data, &baseResults); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %s: unreadable baseline %s: %v\n", guardName, base.path, err)
		os.Exit(1)
	}
	var ref float64
	refFound := false
	for _, r := range baseResults {
		if v, ok := r.Metrics[metric]; ok {
			ref, refFound = v, true
		}
	}
	if !refFound || ref <= 0 {
		fmt.Fprintf(os.Stderr, "benchreport: %s: baseline %s lacks %s — bootstrap pass\n", guardName, base.path, metric)
		return
	}
	regress := (cur/ref - 1) * 100
	if regress > pct {
		fmt.Fprintf(os.Stderr,
			"benchreport: %s FAILED: %s %.0fns vs baseline %.0fns (%+.1f%%, budget %+.1f%%)\n",
			guardName, what, cur, ref, regress, pct)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr,
		"benchreport: %s ok: %s %.0fns vs baseline %.0fns (%+.1f%%, budget %+.1f%%)\n",
		guardName, what, cur, ref, regress, pct)
}
