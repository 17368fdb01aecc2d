package core

import (
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// observerProcs is the Tcl half of the dialogue-cost benchmark's script
// workload (dialoguebench/script.go): the Caesar shift and the checksum
// fold, without the send and expect around them.
const observerProcs = `
set alpha abcdefghijklmnopqrstuvwxyz
proc shift {word k} {
	global alpha
	set out ""
	set len [string length $word]
	for {set j 0} {$j < $len} {incr j} {
		set p [string first [string index $word $j] $alpha]
		append out [string index $alpha [expr {($p + $k) % 26}]]
	}
	return $out
}
proc fold {sum text} {
	global alpha
	foreach c [split $text ""] {
		set sum [expr {($sum * 31 + [string first $c $alpha] + 2) % 1000003}]
	}
	return $sum
}
`

const observerCall = `fold 7 [shift dialogue 3]`

// BenchmarkDispatchObserver prices the engine's dispatch observer per
// Tcl dispatch. For each evaluation mode, "shipped" runs the engine as
// shipped: every dispatch counted, the seeded sample of about 1 in 64
// timed, hooked and recorded. "watched" clears the Watching gate, so
// every dispatch is timed and hooked, as under a profiler; the ring
// still records only the sample. "bare" removes the hook. The
// differences in ns/dispatch are the observer's price, including any
// fast path that arming it turns off. Every leg divides by the
// interpreter's exact dispatch count.
func BenchmarkDispatchObserver(b *testing.B) {
	for _, mode := range []string{"classic", "vm"} {
		for _, leg := range []string{"shipped", "watched", "bare"} {
			b.Run(mode+"/"+leg, func(b *testing.B) {
				e := NewEngine(EngineOptions{UserIn: strings.NewReader(""), UserOut: io.Discard, EvalMode: mode})
				defer e.Shutdown()
				if _, err := e.Run(observerProcs); err != nil {
					b.Fatal(err)
				}
				if out, err := e.Run(observerCall); err != nil || out != "616258" {
					b.Fatalf("%q, %v", out, err)
				}
				switch leg {
				case "watched":
					e.Interp.Watching = nil
				case "bare":
					e.Interp.DispatchHook = nil
				}
				d0 := e.Interp.Dispatches()
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					e.Run(observerCall)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Interp.Dispatches()-d0), "ns/dispatch")
			})
		}
	}
}

// dialogueSetup is the rest of the script workload's Tcl half: a seeded
// 64-word schedule and the dialogue proc that walks it through global
// links and llength/lindex, around observerProcs' shift and fold, without
// the send and expect.
func dialogueSetup() string {
	const alpha = "abcdefghijklmnopqrstuvwxyz"
	var words, shifts []string
	for k := 0; k < 64; k++ {
		w := make([]byte, 5+k%5)
		for j := range w {
			w[j] = alpha[(k*7+j*3)%26]
		}
		words = append(words, string(w))
		shifts = append(shifts, strconv.Itoa(1+k%25))
	}
	return "set words {" + strings.Join(words, " ") + "}\n" +
		"set shifts {" + strings.Join(shifts, " ") + "}\n" + `
set n 0
set sum 0
proc dialogue {} {
	global n sum words shifts
	set i [expr {$n % [llength $words]}]
	incr n
	set line [shift [lindex $words $i] [lindex $shifts $i]]
	set sum [fold $sum $line]
	return $sum
}
`
}

// dialogueAllocBudget bounds the allocations of one dialogue's Tcl half:
// the count measured when procs got slot frames, list forms and reused
// argument vectors (16; 358 before), rounded up to a multiple of 10.
const dialogueAllocBudget = 20

// TestScriptDialogueAllocs is the deterministic allocation guard for the
// Tcl half of a script-workload dialogue, on an engine with its shipped
// DispatchHook: the allocations per dialogue, averaged over two walks of
// the schedule.
func TestScriptDialogueAllocs(t *testing.T) {
	e := NewEngine(EngineOptions{UserIn: strings.NewReader(""), UserOut: io.Discard})
	defer e.Shutdown()
	if _, err := e.Run(observerProcs + dialogueSetup()); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 64; k++ {
		if _, err := e.Run("dialogue"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(128, func() { e.Run("dialogue") })
	if allocs > dialogueAllocBudget {
		t.Errorf("%.1f allocations per dialogue, budget %d", allocs, dialogueAllocBudget)
	}
}

// TestScriptDialogueHookCalls is the deterministic guard on what the
// dispatch observer costs a shipped engine (no profiler, nobody
// watching): over 64 dialogues of the script workload's Tcl half, the
// hook runs, and the ring records an eval event, for the seeded sample
// only, which is at most one dispatch in 32 (its mean is one in 64).
func TestScriptDialogueHookCalls(t *testing.T) {
	e := NewEngine(EngineOptions{UserIn: strings.NewReader(""), UserOut: io.Discard})
	defer e.Shutdown()
	if _, err := e.Run(observerProcs + dialogueSetup()); err != nil {
		t.Fatal(err)
	}
	c := countHook(e)
	rec := e.Recorder()
	d0, t0 := e.Interp.Dispatches(), rec.Total()
	for k := 0; k < 64; k++ {
		if _, err := e.Run("dialogue"); err != nil {
			t.Fatal(err)
		}
	}
	n, evs := e.Interp.Dispatches()-d0, rec.Total()-t0
	for _, ev := range rec.Events() {
		if ev.Kind != trace.KindEval {
			t.Fatalf("ring holds a %s event; the dialogue records only evals", ev.Kind)
		}
	}
	if c.calls != c.sampled || uint64(c.sampled) != evs {
		t.Errorf("%d hook calls and %d ring eval events for %d sampled dispatches", c.calls, evs, c.sampled)
	}
	if c.sampled == 0 || c.sampled > n/32 {
		t.Errorf("%d of %d dispatches sampled, want 1..%d", c.sampled, n, n/32)
	}
}

// hookCounts counts an engine's DispatchHook calls and, among them, the
// sampled dispatches.
type hookCounts struct{ calls, sampled int64 }

// countHook wraps e's DispatchHook, which still runs first, with counts.
func countHook(e *Engine) *hookCounts {
	c := &hookCounts{}
	own := e.Interp.DispatchHook
	e.Interp.DispatchHook = func(name string, depth int, d time.Duration) {
		own(name, depth, d)
		c.calls++
		if e.Interp.DispatchSampled() {
			c.sampled++
		}
	}
	return c
}
