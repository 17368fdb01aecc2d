package core

import (
	"io"
	"strconv"
	"strings"
	"testing"
	"time"
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

// BenchmarkDispatchObserver prices the engine's always-on dispatch
// observer — DispatchHook feeding the eval histogram and the flight
// recorder's ring — per Tcl dispatch. For each evaluation mode,
// "observed" runs the engine as shipped and "bare" the same engine with
// the hook removed; the difference in ns/dispatch is the observer's price,
// including any fast path that arming it turns off.
func BenchmarkDispatchObserver(b *testing.B) {
	for _, mode := range []string{"classic", "vm"} {
		for _, observed := range []bool{true, false} {
			name := mode + "/bare"
			if observed {
				name = mode + "/observed"
			}
			b.Run(name, func(b *testing.B) {
				e := NewEngine(EngineOptions{UserIn: strings.NewReader(""), UserOut: io.Discard, EvalMode: mode})
				defer e.Shutdown()
				if _, err := e.Run(observerProcs); err != nil {
					b.Fatal(err)
				}
				hook := e.Interp.DispatchHook
				dispatches := 0
				e.Interp.DispatchHook = func(string, int, time.Duration) { dispatches++ }
				if out, err := e.Run(observerCall); err != nil || out != "616258" {
					b.Fatalf("%q, %v", out, err)
				}
				e.Interp.DispatchHook = nil
				if observed {
					e.Interp.DispatchHook = hook
				}
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					e.Run(observerCall)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dispatches), "ns/dispatch")
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
