package tcl

import (
	"strings"
	"testing"

	"repro/internal/lru"
)

// fuzzInterp builds an interpreter hardened for differential fuzzing:
// the requested evaluation mode, output captured, step-bounded, and with
// every command that touches the process or filesystem (or reports
// wall-clock time, which would differ between the two runs by
// construction) removed.
func fuzzInterp(mode EvalMode, out *strings.Builder) *Interp {
	i := New()
	i.SetEvalMode(mode)
	i.Stdout = out
	i.Stderr = out
	i.StepLimit = 4000
	for _, name := range []string{"exec", "source", "cd", "gets", "exit", "pwd", "time"} {
		i.Unregister(name)
	}
	return i
}

// FuzzEvalCacheEquivalence feeds the same script to a vm interpreter with
// the default compile caches and to one whose script and expr LRUs hold a
// single entry, so nearly every evaluation evicts and recompiles, and
// requires identical results: same value, error text, ErrorInfo, output,
// step count, and dispatch-hook log. Each interpreter then runs the
// script a second time, so warm programs and primed inline caches face
// their evicted, recompiled counterparts. The caches map source text to
// a lowered program, so their size must be invisible; FuzzVMEquivalence
// holds the vm to the classic referee.
func FuzzEvalCacheEquivalence(f *testing.F) {
	for _, s := range []string{
		`set a 5; while {$a > 0} {incr a -1}; set a`,
		`proc fib {n} { if {$n < 2} { return $n }; expr {[fib [expr {$n-1}]] + [fib [expr {$n-2}]]} }; fib 9`,
		`foreach x {1 2 3} { puts "item $x" }`,
		`catch {error boom} msg; set msg`,
		`set l [list a b c]; lappend l "d e"; llength $l`,
		`switch -glob ab* {a* {format star} default {format none}}`,
		`expr {3.5 * 2 + (7 % 3)}`,
		`string match {[a-c]?} bz`,
		`subst {nested [expr {1+1}] $tcl_version}`,
		`while 1 {}`,
		`unknown_command_xyz 1 2`,
		"set x {unbalanced",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		if len(script) > 1024 {
			t.Skip("bounded script size")
		}
		// Long digit runs turn into huge format widths / loop counts that
		// can exhaust memory before the step limit can bite.
		if hasLongDigitRun(script, 8) {
			t.Skip("pathological numeric literal")
		}
		var outA, outB, dispA, dispB strings.Builder
		cached := fuzzModeInterp(EvalVM, &outA, &dispA)
		thrash := fuzzModeInterp(EvalVM, &outB, &dispB)
		thrash.vmCache = lru.New[string, *vmEntry](1)
		thrash.vmExprCache = lru.New[string, *vmExprEntry](1)

		for _, pass := range []string{"cold", "warm"} {
			outA.Reset()
			outB.Reset()
			dispA.Reset()
			dispB.Reset()
			cached.ResetSteps()
			thrash.ResetSteps()
			cached.ErrorInfo, thrash.ErrorInfo = "", ""

			valA, errA := cached.Eval(script)
			valB, errB := thrash.Eval(script)

			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s: error presence diverged: cached=%v thrash=%v script=%q", pass, errA, errB, script)
			}
			if errA != nil && errA.Error() != errB.Error() {
				t.Fatalf("%s: error text diverged:\ncached: %s\nthrash: %s\nscript=%q", pass, errA, errB, script)
			}
			if valA != valB {
				t.Fatalf("%s: result diverged: cached=%q thrash=%q script=%q", pass, valA, valB, script)
			}
			if cached.ErrorInfo != thrash.ErrorInfo {
				t.Fatalf("%s: ErrorInfo diverged:\ncached: %q\nthrash: %q\nscript=%q", pass, cached.ErrorInfo, thrash.ErrorInfo, script)
			}
			if outA.String() != outB.String() {
				t.Fatalf("%s: output diverged:\ncached: %q\nthrash: %q\nscript=%q", pass, outA.String(), outB.String(), script)
			}
			if sa, sb := cached.Steps(), thrash.Steps(); sa != sb {
				t.Fatalf("%s: step count diverged: cached=%d thrash=%d script=%q", pass, sa, sb, script)
			}
			if dispA.String() != dispB.String() {
				t.Fatalf("%s: dispatch hook diverged:\ncached: %q\nthrash: %q\nscript=%q", pass, dispA.String(), dispB.String(), script)
			}
		}
	})
}

func hasLongDigitRun(s string, n int) bool {
	run := 0
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			if run++; run >= n {
				return true
			}
		} else {
			run = 0
		}
	}
	return false
}
