package tcl

import (
	"strings"
	"testing"
)

func TestStepLimitStopsFlatInfiniteLoop(t *testing.T) {
	// MaxDepth cannot catch `while 1 {}` — it never recurses. StepLimit must.
	for _, mode := range []EvalMode{EvalVM, EvalClassic} {
		in := New()
		in.SetEvalMode(mode)
		in.StepLimit = 10_000
		_, err := in.Eval("while 1 {}")
		if err == nil {
			t.Fatalf("%s: infinite loop terminated without error", mode)
		}
		if !strings.Contains(err.Error(), "step limit") {
			t.Fatalf("%s: err = %v, want step-limit error", mode, err)
		}
	}
}

func TestStepLimitNotSwallowedByCatch(t *testing.T) {
	in := New()
	in.StepLimit = 10_000
	// Once exhausted, even catch is refused at dispatch, so the loop
	// cannot launder the limit error into another iteration.
	if _, err := in.Eval("while 1 {catch {set x 1}}"); err == nil {
		t.Fatal("catch swallowed the step limit")
	}
}

func TestStepLimitCountsEquallyAcrossEvalCacheVariants(t *testing.T) {
	const script = `
proc fib {n} {
    if {$n < 2} { return $n }
    return [expr {[fib [expr {$n-1}]] + [fib [expr {$n-2}]]}]
}
set acc 0
for {set i 0} {$i < 8} {incr i} {
    set acc [expr {$acc + [fib $i]}]
}
set acc
`
	run := func(mode EvalMode) int64 {
		in := New()
		in.SetEvalMode(mode)
		out, err := in.Eval(script)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if out != "33" {
			t.Fatalf("%s: result %q, want 33", mode, out)
		}
		return in.Steps()
	}
	vmSteps, classic := run(EvalVM), run(EvalClassic)
	if vmSteps != classic {
		t.Fatalf("step counts diverge: vm=%d classic=%d (StepLimit would be variant-dependent)", vmSteps, classic)
	}
	if vmSteps == 0 {
		t.Fatal("no steps charged")
	}
}

func TestStepsResetAndUnlimitedByDefault(t *testing.T) {
	in := New()
	if in.StepLimit != 0 {
		t.Fatalf("StepLimit default = %d, want 0 (unlimited)", in.StepLimit)
	}
	if _, err := in.Eval("for {set i 0} {$i < 100} {incr i} {}"); err != nil {
		t.Fatal(err)
	}
	if in.Steps() == 0 {
		t.Fatal("steps not counted")
	}
	in.ResetSteps()
	if in.Steps() != 0 {
		t.Fatal("ResetSteps did not zero the counter")
	}
}
