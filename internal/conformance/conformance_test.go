package conformance

import (
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultify"
	"repro/internal/replay"
	"repro/internal/tcl"
	"repro/internal/trace"
)

const scriptsDir = "../../scripts"

// TestVariantsNameTheirEvaluator pins each matrix cell to the evaluation
// mode its name claims: an engine built the way RunScript builds one must
// report that mode, so a change of the engine's default mode cannot
// quietly turn the classic baseline into a vm cell, nor the "cached"
// cells, which run the engine default (six of them watched), into
// classic ones.
func TestVariantsNameTheirEvaluator(t *testing.T) {
	for _, v := range Variants {
		want := ""
		for _, part := range strings.Split(v.Name, "-") {
			if _, ok := tcl.ParseEvalMode(part); ok {
				want = part
			} else if part == "cached" {
				if v.EvalMode != "" {
					t.Errorf("%s: a cached cell runs the engine default, but selects %q", v.Name, v.EvalMode)
				}
				want = tcl.EvalVM.String()
			}
		}
		if want == "" {
			t.Errorf("%s: name does not say which evaluator the cell runs", v.Name)
			continue
		}
		eng := core.NewEngine(core.EngineOptions{UserIn: strings.NewReader(""), UserOut: io.Discard})
		v.applyEval(eng.Interp)
		if got := eng.Interp.EvalMode().String(); got != want {
			t.Errorf("%s: interpreter runs %s, name says %s", v.Name, got, want)
		}
		eng.Shutdown()
	}
}

// TestConformanceScripts replays every shipped script through the full
// variant × condition matrix and requires each cell's outcome to be
// identical to the baseline (rescan matcher, classic eval, clean
// transport). The baseline's own cell reruns it, so a referee that does
// not reproduce itself fails there rather than in every other cell.
func TestConformanceScripts(t *testing.T) {
	if testing.Short() {
		t.Skip("script matrix is wall-clock heavy (callback.exp sleeps 4s per cell)")
	}
	for _, sc := range Scripts {
		sc := sc
		t.Run(sc.File, func(t *testing.T) {
			t.Parallel()
			base, err := RunScript(scriptsDir, sc, Variants[0], Conditions[0].Sched)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if base.Err != "" {
				t.Fatalf("baseline script error: %s", base.Err)
			}
			for _, v := range Variants {
				for _, cond := range Conditions {
					v, cond := v, cond
					t.Run(v.Name+"/"+cond.Name, func(t *testing.T) {
						t.Parallel()
						got, err := RunScript(scriptsDir, sc, v, cond.Sched)
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						if d := Diff(base, got, sc.CompareUser); d != "" {
							div := &Divergence{
								Subject: sc.File, Variant: v,
								Schedule: cond.Sched, Minimal: cond.Sched, Detail: d,
								Dump: got.Dump, Journal: got.Journal,
							}
							t.Error(div.String())
						}
					})
				}
			}
		})
	}
}

// TestConformanceScriptedScenarios replays the interpreter-heavy
// testdata fixtures across the classic referee, the selected vm and the
// engine default ("cached", the vm unnamed) × every fault schedule ×
// scheduler shapes (including the shard1/shard8 legs), anchored to the
// classic evaluator — the frozen referee — as baseline, whose own cell
// reruns it as in TestConformanceScripts. The fixtures compute each sent
// byte in Tcl, so a vm miscompile shows up as a transcript or exit
// divergence here, not just in unit tests.
func TestConformanceScriptedScenarios(t *testing.T) {
	variants := []Variant{
		{Name: "classic", Matcher: core.MatcherRescan, EvalMode: "classic"},
		{Name: "cached", Matcher: core.MatcherRescan},
		{Name: "vm", Matcher: core.MatcherRescan, EvalMode: "vm"},
		{Name: "classic-shard1", Matcher: core.MatcherRescan, EvalMode: "classic", Shards: 1},
		{Name: "cached-shard1", Matcher: core.MatcherRescan, Shards: 1},
		{Name: "vm-shard1", Matcher: core.MatcherRescan, EvalMode: "vm", Shards: 1},
		{Name: "classic-shard8", Matcher: core.MatcherRescan, EvalMode: "classic", Shards: 8},
		{Name: "cached-shard8", Matcher: core.MatcherRescan, Shards: 8},
		{Name: "vm-shard8", Matcher: core.MatcherRescan, EvalMode: "vm", Shards: 8},
	}
	for _, sc := range ScriptedScenarios {
		sc := sc
		t.Run(sc.File, func(t *testing.T) {
			t.Parallel()
			base, err := RunScript("testdata", sc, variants[0], Conditions[0].Sched)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if base.Err != "" {
				t.Fatalf("baseline script error: %s", base.Err)
			}
			for _, v := range variants {
				for _, cond := range Conditions {
					v, cond := v, cond
					t.Run(v.Name+"/"+cond.Name, func(t *testing.T) {
						t.Parallel()
						got, err := RunScript("testdata", sc, v, cond.Sched)
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						if d := Diff(base, got, sc.CompareUser); d != "" {
							div := &Divergence{
								Subject: sc.File, Variant: v,
								Schedule: cond.Sched, Minimal: cond.Sched, Detail: d,
								Dump: got.Dump, Journal: got.Journal,
							}
							t.Error(div.String())
						}
					})
				}
			}
		})
	}
}

// TestConformanceScenarios runs the engine-scenario table across both
// matchers, every condition, both schedulers (per-session pumps and
// sharded event loops), and both transports (virtual and loopback
// socket); all summaries must equal the baseline's.
func TestConformanceScenarios(t *testing.T) {
	configs := []struct {
		name    string
		mode    core.MatcherMode
		shards  int
		network bool
		mux     bool
	}{
		{"rescan", core.MatcherRescan, 0, false, false},
		{"incremental", core.MatcherIncremental, 0, false, false},
		{"rescan-shard1", core.MatcherRescan, 1, false, false},
		{"rescan-shard8", core.MatcherRescan, 8, false, false},
		{"incremental-shard8", core.MatcherIncremental, 8, false, false},
		{"rescan-net", core.MatcherRescan, 0, true, false},
		{"rescan-net-shard8", core.MatcherRescan, 8, true, false},
		{"rescan-mux", core.MatcherRescan, 0, false, true},
		{"rescan-mux-shard8", core.MatcherRescan, 8, false, true},
	}
	for _, sc := range AllScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			base, err := RunScenario(sc, core.MatcherRescan, Conditions[0].Sched)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if base == "" {
				t.Fatal("baseline produced an empty summary")
			}
			for _, m := range configs {
				for _, cond := range Conditions {
					m, cond := m, cond
					t.Run(m.name+"/"+cond.Name, func(t *testing.T) {
						t.Parallel()
						got, err := RunScenarioWith(sc, ScenarioRun{
							Matcher: m.mode, Sched: cond.Sched,
							Shards: m.shards, Network: m.network, Mux: m.mux,
						})
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						if got != base {
							t.Errorf("summary diverged under schedule %s:\nbaseline: %s\n     got: %s",
								cond.Sched.String(), base, got)
						}
					})
				}
			}
		})
	}
}

// TestPollerFallbackScenarioEquivalence is the zero-copy ingest
// differential: every scenario runs over the socket transport under a
// sharded scheduler twice — once eligible for the shard's readiness
// poller (the epoll loop on linux) and once pinned to the fallback
// reader goroutine — and the summaries must be identical. Which loop
// moves the bytes is not an observable. On platforms without a poller
// both arms take the fallback and the test degenerates to a rerun.
func TestPollerFallbackScenarioEquivalence(t *testing.T) {
	for _, sc := range AllScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for _, cond := range Conditions {
				cond := cond
				t.Run(cond.Name, func(t *testing.T) {
					t.Parallel()
					run := ScenarioRun{
						Matcher: core.MatcherRescan, Sched: cond.Sched,
						Shards: 4, Network: true,
					}
					polled, err := RunScenarioWith(sc, run)
					if err != nil {
						t.Fatalf("polled run: %v", err)
					}
					run.NoPoller = true
					fallback, err := RunScenarioWith(sc, run)
					if err != nil {
						t.Fatalf("fallback run: %v", err)
					}
					if polled != fallback {
						t.Errorf("ingest loops diverged under schedule %s:\n  polled: %s\nfallback: %s",
							cond.Sched.String(), polled, fallback)
					}
				})
			}
		})
	}
}

// TestConformanceMutationCaught is the harness's own proof of life: a
// deliberately semantics-altering schedule (forced EOF 5 bytes into the
// passwd dialogue) must be detected as a divergence and reported with
// the seed and a minimized fault schedule — the repro recipe a real
// divergence would ship with. (passwd.exp is straight-line: the early
// EOF implicitly closes the session, §3.2, and the next send fails —
// a deterministic, promptly-detected divergence. login.exp's retry loop
// would instead respawn forever.)
func TestConformanceMutationCaught(t *testing.T) {
	sc := ScriptCase{File: "passwd.exp", CompareUser: true}
	base, err := RunScript(scriptsDir, sc, Variants[0], Conditions[0].Sched)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	mutated := faultify.Schedule{
		Seed:            5,
		MaxReadChunk:    2,
		TransientEveryN: 3,
		CutAfterBytes:   5,
	}
	diverges := func(s faultify.Schedule) bool {
		got, err := RunScript(scriptsDir, sc, Variants[0], s)
		if err != nil {
			return true
		}
		return Diff(base, got, sc.CompareUser) != ""
	}
	got, err := RunScript(scriptsDir, sc, Variants[0], mutated)
	if err != nil {
		t.Fatalf("mutated run: %v", err)
	}
	detail := Diff(base, got, sc.CompareUser)
	if detail == "" {
		t.Fatal("mutation not caught: forced mid-dialogue EOF produced an identical outcome")
	}
	div := &Divergence{
		Subject: sc.File, Variant: Variants[0],
		Schedule: mutated,
		Minimal:  Minimize(mutated, diverges),
		Detail:   detail,
		Dump:     got.Dump,
		Journal:  got.Journal,
	}
	report := div.String()
	t.Logf("mutation report (expected):\n%s", report)
	for _, want := range []string{"seed=5", "cutafter=5B", "passwd.exp", "minimized",
		"flight recording", "replayable journal"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	// The embedded journal must replay standalone and reproduce the
	// diverging run's dispositions exactly — the harness's confirmation
	// that the divergence is engine behaviour, not run-to-run noise.
	reports, err := replay.RunJournal(div.Journal, replay.Options{})
	if err != nil {
		t.Fatalf("divergence journal does not replay: %v", err)
	}
	if len(reports) == 0 {
		t.Fatal("divergence journal replayed no sessions")
	}
	for _, rep := range reports {
		if !rep.Clean() {
			t.Errorf("divergence journal did not reproduce its own run: %s", rep)
		}
	}
	// The embedded black box must be machine-readable and must show both
	// sides of the incident: the adversary's forced cut and the EOF the
	// engine saw because of it.
	events, err := trace.ParseJSONL(div.Dump)
	if err != nil {
		t.Fatalf("embedded dump is not parseable JSONL: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("embedded dump is empty")
	}
	kinds := map[string]bool{}
	for _, e := range events {
		kinds[e.Kind] = true
	}
	if !kinds["fault"] {
		t.Errorf("dump missing the injected-fault event; kinds seen: %v", kinds)
	}
	if !kinds["eof"] {
		t.Errorf("dump missing the engine-side eof event; kinds seen: %v", kinds)
	}
	// Minimization must keep the fault that matters and shed the noise.
	if div.Minimal.CutAfterBytes != 5 {
		t.Errorf("minimized schedule lost the essential fault: %s", div.Minimal.String())
	}
	if div.Minimal.MaxReadChunk != 0 || div.Minimal.TransientEveryN != 0 {
		t.Errorf("minimized schedule kept irrelevant faults: %s", div.Minimal.String())
	}
}
