package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TraceOverhead is experiment E16: what the flight recorder costs the
// expect hot loop. The observability layer's contract is that a disabled
// recorder is one nil check plus one atomic load per wakeup — invisible —
// and that even full ring recording stays cheap enough to leave on in
// production engines. This experiment measures ns/expect on a batched
// send→expect→match ping-pong with the recorder absent, present-but-
// disabled, ring-recording, and fully narrating, and regenerates the
// §7.4-style latency story as log-bucketed histograms with tail
// percentiles (wakeup-to-match, read-to-wakeup, eval dispatch).
//
// Methodology: the nanoseconds under test are three orders of magnitude
// below the scheduler noise of a single timed run, so the guard is read
// from paired rounds, as E20 reads its journal guard. Each round makes
// fresh recorders and sessions, starts after a full collection, and runs
// the two guarded arms, absent and disabled, back to back, the first arm
// alternating between rounds so neither always runs warm or cold; ring
// and diag follow, reported but not guarded. Fresh objects per round turn
// an arm's own luck (where its goroutines land, where its recorder sits
// in memory) into round-to-round noise, which the median removes. The guard metric is the median of the
// per-round disabled/absent ratios, which scripts/check.sh caps at +2%;
// each arm's ns/expect is its median over the rounds.
func TraceOverhead() (Result, error) {
	const (
		batch   = 100 // markers per ping (~800 B, inside the default match_max)
		batches = 30  // batches per arm per round
		rounds  = 21
	)

	// pinger emits a burst of unique markers per received byte; the driver
	// expects them one by one, so each batch is one genuine read wakeup
	// followed by batch-1 buffered scans — the instrumented path.
	pinger := func(stdin io.Reader, stdout io.Writer) error {
		one := make([]byte, 1)
		for b := 0; ; b++ {
			if _, err := stdin.Read(one); err != nil {
				return nil
			}
			var sb strings.Builder
			for j := 0; j < batch; j++ {
				fmt.Fprintf(&sb, "m%d;", b*batch+j)
			}
			io.WriteString(stdout, sb.String())
		}
	}

	runBatch := func(s *core.Session, b int) (time.Duration, error) {
		if err := s.Send("x"); err != nil {
			return 0, err
		}
		start := time.Now()
		for j := 0; j < batch; j++ {
			if _, err := s.ExpectTimeout(5*time.Second,
				core.Exact(fmt.Sprintf("m%d;", b*batch+j))); err != nil {
				return 0, fmt.Errorf("expect %d: %v", b*batch+j, err)
			}
		}
		return time.Since(start), nil
	}

	configs := []struct {
		name string
		rec  func() *trace.Recorder
	}{
		{"absent", func() *trace.Recorder { return nil }},
		// Present, mode 0: the guarded hot path the 2% budget protects.
		{"disabled", func() *trace.Recorder { return trace.New(0) }},
		{"ring", func() *trace.Recorder {
			rec := trace.New(0)
			rec.SetRecording(true)
			return rec
		}},
		{"diag", func() *trace.Recorder {
			rec := trace.New(0)
			rec.SetDiag(2, io.Discard)
			return rec
		}},
	}
	// runArm spawns a fresh session for one configuration and returns
	// its ns/expect over batches timed batches.
	runArm := func(i int, rec *trace.Recorder) (float64, error) {
		c := configs[i]
		s, err := core.SpawnProgram(&core.Config{Rec: rec, Timeout: 5 * time.Second},
			"pinger-"+c.name, pinger)
		if err != nil {
			return 0, err
		}
		defer s.Close()
		var total time.Duration
		for b := 0; b < batches; b++ {
			d, err := runBatch(s, b)
			if err != nil {
				return 0, err
			}
			total += d
		}
		return float64(total.Nanoseconds()) / (batch * batches), nil
	}

	armNS := make([][]float64, len(configs))
	var ratios []float64 // disabled/absent, one per round
	for r := 0; r < rounds; r++ {
		// Fresh recorders too, so that no arm keeps one allocation's
		// placement for a whole run; then a finished collection, so that
		// a cycle those allocations (or the previous round) began cannot
		// land on one arm of this pair.
		recs := make([]*trace.Recorder, len(configs))
		for i, c := range configs {
			recs[i] = c.rec()
		}
		runtime.GC()
		order := []int{0, 1, 2, 3}
		if r%2 == 1 {
			order[0], order[1] = 1, 0
		}
		var ns [4]float64
		for _, i := range order {
			v, err := runArm(i, recs[i])
			if err != nil {
				return Result{}, fmt.Errorf("%s round %d: %w", configs[i].name, r, err)
			}
			ns[i] = v
			armNS[i] = append(armNS[i], v)
		}
		ratios = append(ratios, ns[1]/ns[0])
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	absentNS, disabledNS, ringNS, diagNS := median(armNS[0]), median(armNS[1]), median(armNS[2]), median(armNS[3])
	guardPct := (median(ratios) - 1) * 100

	// One untimed run of 100 batches with the profiler attached samples
	// the latency histograms, kept out of the timed rounds so they price
	// the recorder alone, not recorder+profiler.
	histProf := metrics.NewProfiler()
	{
		rec := trace.New(0)
		rec.SetRecording(true)
		s, err := core.SpawnProgram(&core.Config{Rec: rec, Prof: histProf, Timeout: 5 * time.Second},
			"pinger-hist", pinger)
		if err != nil {
			return Result{}, fmt.Errorf("histogram run: %w", err)
		}
		for b := 0; b < 100; b++ {
			if _, err := runBatch(s, b); err != nil {
				s.Close()
				return Result{}, fmt.Errorf("histogram run: %w", err)
			}
		}
		s.Close()
	}

	// Eval-dispatch latency needs a scripted engine: a small loop body
	// dispatched thousands of times through the interpreter hook.
	engProf := metrics.NewProfiler()
	eng := core.NewEngine(core.EngineOptions{Prof: engProf})
	if _, err := eng.Run(`set total 0
for {set i 0} {$i < 2000} {incr i} { set total [expr {$total + $i % 7}] }`); err != nil {
		eng.Shutdown()
		return Result{}, fmt.Errorf("eval loop: %w", err)
	}
	eng.Shutdown()

	pct := func(with, without float64) float64 { return (with/without - 1) * 100 }
	t := &table{header: []string{"recorder", "ns/expect", "vs absent"}}
	t.add("absent", fmt.Sprintf("%.0f", absentNS), "—")
	t.add("present, disabled", fmt.Sprintf("%.0f", disabledNS), fmt.Sprintf("%+.1f%% (median %+.1f%%)", pct(disabledNS, absentNS), guardPct))
	t.add("ring recording", fmt.Sprintf("%.0f", ringNS), fmt.Sprintf("%+.1f%%", pct(ringNS, absentNS)))
	t.add("diag level 2", fmt.Sprintf("%.0f", diagNS), fmt.Sprintf("%+.1f%%", pct(diagNS, absentNS)))

	m := map[string]float64{
		"ns_per_expect_absent":        absentNS,
		"ns_per_expect_disabled":      disabledNS,
		"ns_per_expect_ring":          ringNS,
		"ns_per_expect_diag":          diagNS,
		"trace_overhead_disabled_pct": guardPct,
		"trace_overhead_ring_pct":     pct(ringNS, absentNS),
	}
	hists := t.String()
	if hr := histProf.HistReport(); hr != "" {
		hists += "\nlatency histograms (ring-recording round):\n" + hr
	}
	if hr := engProf.HistReport(); hr != "" {
		hists += "\nlatency histograms (scripted engine):\n" + hr
	}
	for _, prof := range []*metrics.Profiler{histProf, engProf} {
		for _, k := range metrics.HistKinds() {
			h := prof.Hist(k)
			if h.Count() == 0 {
				continue
			}
			s := h.Summary(k.String())
			m["p50_ns_"+k.String()] = float64(s.P50NS)
			m["p99_ns_"+k.String()] = float64(s.P99NS)
		}
	}

	verdict := fmt.Sprintf("disabled recorder costs %+.1f%% per expect (budget 2%%); ring recording %+.1f%%",
		guardPct, pct(ringNS, absentNS))
	if guardPct > 2 {
		verdict = fmt.Sprintf("OVER BUDGET: disabled recorder costs %+.1f%% per expect (budget 2%%)", guardPct)
	}
	return Result{
		ID:    "E16",
		Title: "flight-recorder overhead on the expect hot loop",
		PaperClaim: `"expect was designed so that it could also work with Tcl-less applications" (§7.4 measures the ` +
			`engine's own costs) — the diagnostics layer must not change the measured engine`,
		Table:   hists,
		Metrics: m,
		Verdict: verdict,
	}, nil
}
