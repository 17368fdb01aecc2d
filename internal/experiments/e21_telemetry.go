package experiments

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/metrics"
)

// TelemetryEconomics is experiment E21: what observability costs. The
// telemetry plane (internal/metrics.Registry + internal/admin, ISSUE 8)
// hangs pull-based gauges, counters, and histograms off the scheduler,
// the ingest path, and the profiler, and serves them over HTTP. This
// experiment prices the plane in its two honest states against a bare
// 10k-session soak:
//
//  1. armed — the registry is populated and the admin listener is
//     bound, but nobody scrapes. Steady-state cost is zero by design
//     (the registry holds closures that only run at render, and the
//     dialogue path touches the same atomics either way), so the arm
//     is priced by direct accounting: the measured wall time to build
//     the registry and bind the listener, amortized over the soak.
//     Bar: <=1% per dialogue.
//  2. scraped — /metrics is scraped at 1 Hz, the Prometheus-shaped
//     worst case. Every scrape renders the full exposition, which
//     reads each shard's session count and each owned session's parked
//     count under their locks, never waiting on a loop. The price is
//     measured against a live-but-quiescent plane carrying 10k
//     scheduled sessions: the median scrape round-trip is the work one
//     scrape does, and the overhead is that work as a share of one
//     second — what 1 Hz scraping steals from one core. Bar: <=3% per
//     dialogue.
//
// Why accounting and not a bare-vs-scraped wall-clock differential:
// this host's run-to-run soak variance is ±2-5% (virtualized CPU, GC
// pacing), so a differential cannot resolve bars this tight — measured
// deltas swing negative as often as positive. And a mid-soak scrape's
// round-trip is no better: it queues behind thousands of dialogue
// messages on the shard loops, so it measures backlog latency, not
// stolen work. The differential soaks still run (interleaved,
// best-of-N, with a live 1 Hz scraper on the scraped arm) and the
// table reports their wall costs as corroboration that the accounted
// overheads are not hiding a larger effect, but the guarded metrics
// come from the accounting.
func TelemetryEconomics() (Result, error) {
	// 10k sessions, and enough dialogues each that the dialogue phase
	// outlasts several 1 Hz ticks — a scraped arm whose only scrape
	// lands during spawn would price nothing.
	const (
		sessions  = 10000
		dialogues = 20
		shards    = 8
		seed      = 1990
	)

	// One arm: the seeded soak, optionally with the registry + admin
	// listener armed, optionally with the 1 Hz loopback scraper running.
	type armResult struct {
		res         *load.Result
		setup       time.Duration // registry build + listener bind
		scrapes     int64
		scrapeBytes int64
	}
	runArm := func(armed, scraped bool) (armResult, error) {
		var out armResult
		cfg := load.Config{
			Sessions:  sessions,
			Dialogues: dialogues,
			Shards:    shards,
			Seed:      seed,
		}
		var srv *admin.Server
		if armed {
			setupStart := time.Now()
			reg := metrics.NewRegistry()
			cfg.Registry = reg
			var err error
			srv, err = admin.Listen("127.0.0.1:0", admin.Options{Registry: reg})
			if err != nil {
				return armResult{}, fmt.Errorf("admin listener: %w", err)
			}
			out.setup = time.Since(setupStart)
			defer srv.Close()
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		if scraped {
			url := "http://" + srv.Addr() + "/metrics"
			scrape := func() {
				resp, err := http.Get(url)
				if err != nil {
					return
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				out.scrapes++
				out.scrapeBytes += n
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				scrape() // first scrape lands while the soak is live
				tick := time.NewTicker(time.Second)
				defer tick.Stop()
				for {
					select {
					case <-tick.C:
						scrape()
					case <-stop:
						return
					}
				}
			}()
		}
		res, err := load.Run(cfg)
		close(stop)
		wg.Wait()
		if err != nil {
			return armResult{}, err
		}
		if res.Errors != 0 || res.Dropped != 0 {
			return armResult{}, fmt.Errorf("soak unhealthy: %d errors, %d dropped", res.Errors, res.Dropped)
		}
		out.res = res
		return out, nil
	}

	// Interleaved best-of-N: each round runs all three arms back to
	// back; each arm keeps its fastest round.
	const soakRounds = 3
	var (
		bareNs, armedNs, scrapedNs = math.Inf(1), math.Inf(1), math.Inf(1)
		bareElapsed                time.Duration
		totalDialogues             int64
		setup                      time.Duration
		liveScrapes, scrapeBytes   int64
	)
	perDialogue := func(r *load.Result) float64 {
		return float64(r.Elapsed.Nanoseconds()) / float64(r.Dialogues)
	}
	for round := 0; round < soakRounds; round++ {
		bare, err := runArm(false, false)
		if err != nil {
			return Result{}, fmt.Errorf("e21 bare soak: %w", err)
		}
		if ns := perDialogue(bare.res); ns < bareNs {
			bareNs = ns
			bareElapsed = bare.res.Elapsed
		}
		totalDialogues = bare.res.Dialogues

		armed, err := runArm(true, false)
		if err != nil {
			return Result{}, fmt.Errorf("e21 armed soak: %w", err)
		}
		if ns := perDialogue(armed.res); ns < armedNs {
			armedNs = ns
			setup = armed.setup
		}

		scr, err := runArm(true, true)
		if err != nil {
			return Result{}, fmt.Errorf("e21 scraped soak: %w", err)
		}
		if scr.scrapes == 0 {
			return Result{}, fmt.Errorf("e21: scraped arm completed without a single scrape")
		}
		if ns := perDialogue(scr.res); ns < scrapedNs {
			scrapedNs = ns
			liveScrapes, scrapeBytes = scr.scrapes, scr.scrapeBytes
		}
	}

	// Scrape pricing leg: the same plane over 10k scheduled sessions,
	// quiescent so every inspect is serviced the moment it arrives. The
	// median round-trip of a warmed scrape is the work one scrape does.
	scrapeCost, err := priceScrape(sessions, shards)
	if err != nil {
		return Result{}, fmt.Errorf("e21 scrape pricing: %w", err)
	}

	// The guarded overheads, by direct accounting (see the doc comment).
	armedPct := 100 * float64(setup.Nanoseconds()) / float64(bareElapsed.Nanoseconds())
	scrapedPct := 100 * float64(scrapeCost.Nanoseconds()) / float64(time.Second.Nanoseconds())

	// The wall-clock differentials, as corroboration only.
	armedWallPct := (armedNs/bareNs - 1) * 100
	scrapedWallPct := (scrapedNs/bareNs - 1) * 100

	t := &table{header: []string{"arm", "detail", "cost"}}
	t.add("bare", fmt.Sprintf("%d sessions x %d dialogues, %d shards, best of %d",
		sessions, dialogues, shards, soakRounds),
		fmt.Sprintf("%.0f ns/dialogue", bareNs))
	t.add("armed, unscraped", fmt.Sprintf("setup %v amortized over %v soak",
		setup.Round(time.Microsecond), bareElapsed.Round(time.Millisecond)),
		fmt.Sprintf("%.3f%% (wall %+.1f%%, host noise)", armedPct, armedWallPct))
	t.add("scraped at 1 Hz", fmt.Sprintf("%v per 10k-session scrape; %d live scrapes, %d bytes mid-soak",
		scrapeCost.Round(time.Microsecond), liveScrapes, scrapeBytes),
		fmt.Sprintf("%.3f%% (wall %+.1f%%, host noise)", scrapedPct, scrapedWallPct))

	m := map[string]float64{
		"ns_per_dialogue_bare":           bareNs,
		"ns_per_dialogue_armed":          armedNs,
		"ns_per_dialogue_scraped":        scrapedNs,
		"telemetry_armed_overhead_pct":   armedPct,
		"telemetry_scraped_overhead_pct": scrapedPct,
		"telemetry_ns_per_scrape":        float64(scrapeCost.Nanoseconds()),
		"telemetry_scrapes_total":        float64(liveScrapes),
		"telemetry_scrape_bytes_total":   float64(scrapeBytes),
		"soak_dialogues":                 float64(totalDialogues),
	}

	verdict := fmt.Sprintf(
		"armed-but-unscraped telemetry costs %.3f%% per dialogue (bar 1%%); scraping /metrics at 1 Hz costs %.3f%% (bar 3%%)",
		armedPct, scrapedPct)
	if armedPct > 1 || scrapedPct > 3 {
		verdict = fmt.Sprintf("OVER BAR: armed %.3f%% (bar 1%%), scraped %.3f%% (bar 3%%)",
			armedPct, scrapedPct)
	}
	return Result{
		ID:    "E21",
		Title: "telemetry plane economics",
		PaperClaim: `the paper's expect is a black box while it runs — the only introspection is -d debug spew; ` +
			`the telemetry plane makes a live daemon observable, and this prices what that visibility costs the dialogues`,
		Table:   t.String(),
		Metrics: m,
		Verdict: verdict,
	}, nil
}

// priceScrape measures what one /metrics scrape costs over a quiescent
// scheduler carrying n live sessions: full exposition render, the
// per-shard session and parked-op gauges over every owned session, and
// the HTTP round-trip. Returns the median of timed scrapes after warmup.
func priceScrape(n, shards int) (time.Duration, error) {
	sc := core.NewScheduler(core.SchedulerOptions{Shards: shards})
	defer sc.Stop()
	reg := metrics.NewRegistry()
	sc.RegisterMetrics(reg)
	srv, err := admin.Listen("127.0.0.1:0", admin.Options{
		Registry: reg,
		Sessions: sc.SessionInfos,
		Shards:   sc.SnapshotShards,
	})
	if err != nil {
		return 0, err
	}
	defer srv.Close()

	sess := make([]*core.Session, n)
	for i := range sess {
		s, err := core.SpawnProgram(&core.Config{Sched: sc, SID: int32(i + 1)},
			"idle", load.EchoServer())
		if err != nil {
			return 0, fmt.Errorf("spawn %d: %w", i, err)
		}
		sess[i] = s
	}
	defer func() {
		for _, s := range sess {
			s.Close()
		}
	}()

	const warmup, timed = 2, 20
	durs := make([]time.Duration, 0, timed)
	for i := 0; i < warmup+timed; i++ {
		start := time.Now()
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			return 0, err
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			resp.Body.Close()
			return 0, err
		}
		resp.Body.Close()
		if i >= warmup {
			durs = append(durs, time.Since(start))
		}
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2], nil
}
