package tcl

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// fuzzModeInterp is fuzzInterp with an eval-mode axis: same hardening
// (captured output, step bound, no process/filesystem/clock commands),
// plus the requested evaluation engine and a DispatchHook that logs each
// dispatch's depth and name to disp, as an engine's always-on observer
// would see it.
func fuzzModeInterp(mode EvalMode, out, disp *strings.Builder) *Interp {
	i := fuzzInterp(mode, out)
	i.DispatchHook = func(name string, depth int, d time.Duration) {
		disp.WriteString(strconv.Itoa(depth))
		disp.WriteByte(':')
		disp.WriteString(name)
		disp.WriteByte('\n')
	}
	return i
}

// FuzzVMEquivalence is the differential driver behind the vm: the same
// script runs under the classic walker (the frozen referee) and the
// register bytecode vm, each with a recording DispatchHook armed, and both
// must agree on value, error text, ErrorInfo, captured output, step count,
// and the hook's (depth, name) sequence — the vm reports from its
// specialized fast paths. The bytecode compiler and the classic parser are
// independent implementations of the same language, so any divergence is
// a bug in one of them; the commands and expressions the vm hands to the
// classic evaluator are where ErrorInfo notes are written, so those are
// compared too. Each script also runs twice in a second vm interpreter so
// warm inline caches and memoized programs are fuzzed, not just the cold
// compile.
func FuzzVMEquivalence(f *testing.F) {
	for _, s := range append([]string{
		// The differential seeds shared with the conformance matrix's
		// eval axis.
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
		// vm-specific seeds: specialized opcodes, inline-cache churn,
		// lazy expression operators, and the native-value channel.
		`set t 0; foreach n {1 2 3 4} { if {$n % 2} { incr t $n } else { set t [expr {$t * 2}] } }; set t`,
		`rename set s2; s2 a 1; rename s2 set; set a`,
		`proc incr {v args} { return shadowed }; incr q`,
		`set a 0x10; set b [set a]; expr {$a == $b}`,
		`expr {1 ? [expr {2 + 3}] : [die]}`,
		`expr {0 && 1/0}`,
		`set x 21; set y 3; expr {($x * 2 + 100 / $y) > 50 && $x % 7 <= 3 || !($y == 3)}`,
		`set n v; set $n 9; incr $n; set v`,
	}, listFrameScripts...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		if len(script) > 1024 {
			t.Skip("bounded script size")
		}
		if hasLongDigitRun(script, 8) {
			t.Skip("pathological numeric literal")
		}
		var outC, outV, dispC, dispV strings.Builder
		classic := fuzzModeInterp(EvalClassic, &outC, &dispC)
		vmi := fuzzModeInterp(EvalVM, &outV, &dispV)

		valC, errC := classic.Eval(script)
		valV, errV := vmi.Eval(script)

		if (errC == nil) != (errV == nil) {
			t.Fatalf("error presence diverged: classic=%v vm=%v script=%q", errC, errV, script)
		}
		if errC != nil && errC.Error() != errV.Error() {
			t.Fatalf("error text diverged:\nclassic: %s\nvm: %s\nscript=%q", errC, errV, script)
		}
		if valC != valV {
			t.Fatalf("result diverged: classic=%q vm=%q script=%q", valC, valV, script)
		}
		if classic.ErrorInfo != vmi.ErrorInfo {
			t.Fatalf("ErrorInfo diverged:\nclassic: %q\nvm: %q\nscript=%q", classic.ErrorInfo, vmi.ErrorInfo, script)
		}
		if outC.String() != outV.String() {
			t.Fatalf("output diverged:\nclassic: %q\nvm: %q\nscript=%q", outC.String(), outV.String(), script)
		}
		if sc, sv := classic.Steps(), vmi.Steps(); sc != sv {
			t.Fatalf("step count diverged: classic=%d vm=%d script=%q", sc, sv, script)
		}
		if dispC.String() != dispV.String() {
			t.Fatalf("dispatch hook diverged:\nclassic: %q\nvm: %q\nscript=%q", dispC.String(), dispV.String(), script)
		}

		// Warm pass: a second vm interpreter runs the script twice so the
		// memoized programs and primed inline caches face the same check.
		// The referee reruns too — scripts are not idempotent.
		var outC2, outV2, dispC2, dispV2 strings.Builder
		classic2 := fuzzModeInterp(EvalClassic, &outC2, &dispC2)
		vmi2 := fuzzModeInterp(EvalVM, &outV2, &dispV2)
		classic2.Eval(script)
		vmi2.Eval(script)
		classic2.ResetSteps()
		vmi2.ResetSteps()
		classic2.ErrorInfo = ""
		vmi2.ErrorInfo = ""
		outC2.Reset()
		outV2.Reset()
		dispC2.Reset()
		dispV2.Reset()
		valC2, errC2 := classic2.Eval(script)
		valV2, errV2 := vmi2.Eval(script)
		if (errC2 == nil) != (errV2 == nil) || valC2 != valV2 || outC2.String() != outV2.String() ||
			classic2.Steps() != vmi2.Steps() || dispC2.String() != dispV2.String() {
			t.Fatalf("warm vm run diverged: classic=%q/%v/%q/%d vm=%q/%v/%q/%d script=%q\nclassic dispatches: %q\nvm dispatches: %q",
				valC2, errC2, outC2.String(), classic2.Steps(),
				valV2, errV2, outV2.String(), vmi2.Steps(), script, dispC2.String(), dispV2.String())
		}
		if errC2 != nil && errV2 != nil && errC2.Error() != errV2.Error() {
			t.Fatalf("warm vm error text diverged:\nclassic: %s\nvm: %s\nscript=%q", errC2, errV2, script)
		}
		if classic2.ErrorInfo != vmi2.ErrorInfo {
			t.Fatalf("warm vm ErrorInfo diverged:\nclassic: %q\nvm: %q\nscript=%q", classic2.ErrorInfo, vmi2.ErrorInfo, script)
		}
	})
}
