package experiments

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/trace"
)

// ReplayEconomics is experiment E20: what durability costs. The replay
// subsystem (internal/replay, PR 7) promotes the flight recorder to an
// append-only journal and adds checkpoint/restore of live sessions; this
// experiment prices both and validates the artifact it pays for.
//
// Three legs:
//
//  1. Journal soak overhead — the same seeded workbench run in paired
//     rounds, with per-shard recorders ring-only and ring+file-journal
//     (segment rotation included); the metric is the median per-round
//     ratio. The bar: journaling a soak costs ≤10% per dialogue, because
//     a journal nobody can afford to leave on never captures the
//     incident.
//  2. Checkpoint/restore round-trip — serialize a live session (2 KiB
//     buffer, pending expect op), parse it back, and rebuild the session;
//     the p99 of that round-trip is the per-session cost of expectd's
//     SIGUSR1 checkpoint-all and the crash-recovery path, and check.sh
//     pins it against the committed BENCH_7.json.
//  3. Replay validation — journal one conformance scenario and re-drive
//     it through the replay engine; the run must replay clean, proving
//     the journal the overhead leg pays for actually buys a reproducible
//     dialogue.
func ReplayEconomics() (Result, error) {
	const (
		sessions  = 256
		dialogues = 16
		shards    = 8
		seed      = 1990
	)

	// Leg 1: identical seeded soaks, ring-only vs journaled. The journal
	// arm writes real segment files with rotation, not an in-memory sink —
	// the overhead being priced includes the write path. runArm runs one
	// soak and returns its cost per dialogue, plus what the journal wrote.
	runArm := func(journaled bool) (ns float64, events, bytes int64, err error) {
		var jdir string
		if journaled {
			if jdir, err = os.MkdirTemp("", "e20-journal-"); err != nil {
				return 0, 0, 0, err
			}
			defer os.RemoveAll(jdir)
		}
		journals := make([]*trace.Journal, shards)
		res, err := load.Run(load.Config{
			Sessions:  sessions,
			Dialogues: dialogues,
			Shards:    shards,
			Seed:      seed,
			Rec: func(i int) *trace.Recorder {
				r := trace.New(4096)
				r.SetRecording(true)
				if journaled {
					j, err := trace.NewFileJournal(jdir, fmt.Sprintf("shard-%d", i), 8<<20)
					if err == nil {
						journals[i] = j
						r.SetJournal(j)
					}
				}
				return r
			},
		})
		if err != nil {
			return 0, 0, 0, err
		}
		if res.Errors != 0 || res.Dropped != 0 {
			return 0, 0, 0, fmt.Errorf("soak unhealthy: %d errors, %d dropped", res.Errors, res.Dropped)
		}
		for i := 0; journaled && i < shards; i++ {
			j := journals[i]
			if j == nil {
				return 0, 0, 0, fmt.Errorf("journal arm ran without a journal")
			}
			if err := j.Err(); err != nil {
				return 0, 0, 0, fmt.Errorf("journal write error: %w", err)
			}
			events += j.Lines()
			j.Close()
			for _, seg := range j.Segments() {
				if fi, err := os.Stat(seg); err == nil {
					bytes += fi.Size()
				}
			}
		}
		return float64(res.Elapsed.Nanoseconds()) / float64(res.Dialogues), events, bytes, nil
	}

	// Paired rounds, as E16 runs its arms: one seeded soak is ~tens of
	// milliseconds of wall clock, so a single shot prices the scheduler's
	// mood, not the journal. Each round runs both arms back to back, the
	// first arm alternating between rounds so neither always runs warm or
	// cold, and the overhead is the median of the per-round
	// journaled/ring-only ratios; each arm's cost is its median.
	const soakRounds = 21
	var (
		ringNS, jNS, ratios []float64
		jEvents, jBytes     int64
	)
	for round := 0; round < soakRounds; round++ {
		var ring, journal float64
		for _, journaled := range []bool{round%2 == 1, round%2 == 0} {
			ns, events, bytes, err := runArm(journaled)
			if err != nil {
				return Result{}, fmt.Errorf("e20 soak round %d (journaled %v): %w", round, journaled, err)
			}
			if journaled {
				journal, jEvents, jBytes = ns, events, bytes
			} else {
				ring = ns
			}
		}
		ringNS = append(ringNS, ring)
		jNS = append(jNS, journal)
		ratios = append(ratios, journal/ring)
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	ringNs, jNs := median(ringNS), median(jNS)
	overheadPct := (median(ratios) - 1) * 100

	// Leg 2: checkpoint → marshal → parse → restore, per-session. The
	// subject session carries a realistic load: a 2 KiB buffer and one
	// pending expect op (two cases), the state the crash battery moves.
	buf := make([]byte, 2048)
	for i := range buf {
		buf[i] = byte('a' + i%26)
	}
	pending := core.OpCheckpoint{
		Cases: []core.CaseSpec{
			{Kind: int(core.CaseGlob), Pattern: "*resume-marker*"},
			{Kind: int(core.CaseEOF)},
		},
		RemainingNS: int64(30 * time.Second),
	}
	ckptHist := metrics.NewHistogram()
	const rounds = 4000
	for i := 0; i < rounds; i++ {
		s := core.NewManualSession(&core.Config{}, "e20-subject")
		s.Feed(buf)
		start := time.Now()
		cp := s.Checkpoint()
		cp.Pending = append(cp.Pending, pending)
		blob := cp.Marshal()
		back, err := core.ParseSessionCheckpoint(blob)
		if err != nil {
			return Result{}, fmt.Errorf("e20 checkpoint parse: %w", err)
		}
		rs, err := core.RestoreSession(&core.Config{}, back, nil)
		if err != nil {
			return Result{}, fmt.Errorf("e20 restore: %w", err)
		}
		ckptHist.Observe(time.Since(start))
		if rs.TotalSeen() != s.TotalSeen() {
			return Result{}, fmt.Errorf("e20 restore drifted: %d vs %d bytes seen", rs.TotalSeen(), s.TotalSeen())
		}
		s.Close()
		rs.Close()
	}
	ckpt := ckptHist.Summary("ckpt_roundtrip")

	// Leg 3: one journaled conformance scenario must replay clean.
	sc := conformance.AllScenarios()[0]
	_, journal, err := conformance.RunScenarioJournaled(sc, conformance.ScenarioRun{Matcher: core.MatcherRescan})
	if err != nil {
		return Result{}, fmt.Errorf("e20 journaled scenario: %w", err)
	}
	reports, err := replay.RunJournal(journal, replay.Options{})
	if err != nil {
		return Result{}, fmt.Errorf("e20 replay: %w", err)
	}
	replayClean := 0
	for _, rep := range reports {
		if !rep.Clean() {
			return Result{}, fmt.Errorf("e20: scenario %s did not replay clean: %s", sc.Name, rep)
		}
		replayClean++
	}

	t := &table{header: []string{"leg", "detail", "cost"}}
	t.add("soak ring-only", fmt.Sprintf("%d dialogues, median of %d paired rounds", sessions*dialogues, soakRounds),
		fmt.Sprintf("%.0f ns/dialogue", ringNs))
	t.add("soak journaled", fmt.Sprintf("%d events, %d bytes, rotated segments", jEvents, jBytes),
		fmt.Sprintf("%.0f ns/dialogue (median ratio %+.1f%%)", jNs, overheadPct))
	t.add("checkpoint round-trip", fmt.Sprintf("%d rounds, 2KiB buffer + pending op", rounds),
		fmt.Sprintf("p50 %dns, p99 %dns", ckpt.P50NS, ckpt.P99NS))
	t.add("replay validation", fmt.Sprintf("scenario %s, %d session(s)", sc.Name, replayClean), "clean")

	m := map[string]float64{
		"ns_per_dialogue_ring_soak":    ringNs,
		"ns_per_dialogue_journal_soak": jNs,
		"journal_overhead_pct":         overheadPct,
		"journal_events_total":         float64(jEvents),
		"journal_bytes_total":          float64(jBytes),
		"ckpt_roundtrip_p50_ns":        float64(ckpt.P50NS),
		"ckpt_roundtrip_p99_ns":        float64(ckpt.P99NS),
		"replay_clean_sessions":        float64(replayClean),
	}

	verdict := fmt.Sprintf(
		"journaling the soak costs %+.1f%% per dialogue (bar 10%%); checkpoint/restore round-trips at p99 %s; journaled scenario replays clean",
		overheadPct, time.Duration(ckpt.P99NS))
	if overheadPct > 10 {
		verdict = fmt.Sprintf("OVER BAR: journaled soak at %+.1f%% per dialogue (bar 10%%)", overheadPct)
	}
	return Result{
		ID:    "E20",
		Title: "replay journal & checkpoint economics",
		PaperClaim: `the paper's dialogues are repeatable because scripts encode them; ` +
			`the journal makes a specific run repeatable byte-for-byte, and this prices that durability`,
		Table:   t.String(),
		Metrics: m,
		Verdict: verdict,
	}, nil
}
