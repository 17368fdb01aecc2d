package core

import (
	"io"
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
