package tcl

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/tcl/vm"
)

// vmEquivScripts is the cross-mode conformance table: every script runs
// under classic and vm evaluation and must produce identical
// results, error text, ErrorInfo traces, output, and step counts. The
// list deliberately covers every specialized opcode (set/incr/expr/if/
// while/foreach), the generic dispatch path, substitution errors, and
// the control-flow edges (break/continue/return/error).
var vmEquivScripts = append([]string{
	// Specialized builtins and the native-value channel.
	`set a 1`,
	`set a 1; set b $a; set b`,
	`set a 0x10; set b [set a]; set b`,
	`set total 0; foreach n {1 2 3 4 5 6 7 8} { if {$n % 2 == 0} { set total [expr {$total + $n * 3}] } else { set log "skip $n" } }; set total`,
	`set x 5; while {$x > 0} { incr x -1 }; set x`,
	`set v 7; incr v; incr v 3; incr v -11; set v`,
	`set v notanum; incr v`,
	`incr novar`,
	`if {1 < 2} then {set r yes} else {set r no}`,
	`if {0} {set r a} elseif {1} {set r b} else {set r c}; set r`,
	`while {1} { break }`,
	`set s 0; foreach {a b} {1 2 3 4} { incr s $a; incr s $b }; set s`,
	`foreach v {a b} { continue; set never 1 }`,
	// Expressions: lazy operators, ternaries, floats, strings, functions.
	`expr {3.5 * 2}`,
	`expr {1 ? "a" : [set q]}`,
	`expr {0 && [undefined]}`,
	`expr {1 || [undefined]}`,
	`expr {"abc" < "abd"}`,
	`expr {abs(-4) + round(2.6)}`,
	`expr {(5 / -2) + (-5 % 3)}`,
	`expr {1 << 4 | 3 & 6 ^ 2}`,
	`expr {1 << 99}`,
	`expr {10 % 0}`,
	`expr {"x" + 1}`,
	`set x 21; set y 3; expr {($x * 2 + 100 / $y) > 50 && $x % 7 <= 3 || !($y == 3)}`,
	// Arrays, lists, procs, frames.
	`set a(x) 1; set a(y) 2; expr {$a(x) + $a(y)}`,
	`proc f {a b} { expr {$a + $b} }; f 3 4`,
	`proc g {} { upvar 1 v loc; set loc 42 }; set v 0; g; set v`,
	`proc h {} { global gv; incr gv }; set gv 9; h; set gv`,
	`proc fib {n} { if {$n < 2} { return $n }; expr {[fib [expr {$n-1}]] + [fib [expr {$n-2}]]} }; fib 9`,
	`set l {}; foreach v {a b c} { lappend l $v-$v }; set l`,
	`set s hello; string length $s`,
	// Errors, traces, and the substitution edges.
	`catch {expr {1/0}} msg; set msg`,
	`catch {error boom} msg; set msg`,
	`unknowncmd foo`,
	`set`,
	`set x [`,
	`expr {[}`,
	`puts "a $missing b"`,
	// Result writes (catch, regexp, regsub, scan) refused by the
	// variable's kind.
	`set a(x) 1; list [catch {catch {set y 2} a} m] $m [array names a]`,
	`set s 1; list [catch {catch {set y 2} s(x)} m] $m $s`,
	`set a(x) 1; list [catch {regexp {b+} abbc a} m] $m [catch {regsub b abc B a} m2] $m2 [catch {scan 12 %d a} m3] $m3`,
	// Command-table churn: inline caches must revalidate.
	`rename set myset; myset z 9; myset z`,
	`proc set2 {n v} { uplevel 1 [list set $n $v] }; set2 q 5; set q`,
	`proc w {} {return inner}; w; rename w ""; w`,
	// Interpolated (non-literal) words through the specialized sites.
	`set n total; set $n 3; incr $n 4; set total`,
	`set i 2; set "v$i" x; set v2`,
}, listFrameScripts...)

// listFrameScripts cross list forms memoized on variables and registers,
// which every write invalidates, with proc frames whose variables live in
// slots: shimmering between string and list, malformed lists at the
// lowered sites, writes from other frames, rebound list commands, and
// frames reached out of order. FuzzVMEquivalence seeds from them too.
var listFrameScripts = []string{
	`set l {a b c}; llength $l; append l " {d e}"; list [llength $l] [lindex $l end]`,
	`set l {a b}; llength $l; append l " {c"; lindex $l 0`,
	`set l {a b}; llength $l; append l " {c"; llength $l`,
	`set l {a b}; lindex $l 0; append l " {c"; foreach x $l { set y $x }`,
	`set l {a b}; llength $l; append l " {c"; list [catch {llength $l} m1] $m1 [catch {lindex $l 0} m2] $m2 [catch {foreach x $l {}} m3] $m3`,
	`set l {a b}; proc p {} { global l; lappend l c }; llength $l; p; list [llength $l] [lindex $l end]`,
	`proc q {} { upvar 1 l x; set x {p q r s} }; set l {a}; llength $l; q; list [llength $l] [lindex $l 2]`,
	`set l {}; foreach v {a b c} { lappend l $v; set last [lindex $l end] }; list $last [llength $l]`,
	`set l {1 2 3}; foreach x $l { set l {9}; lappend out $x }; list $out $l`,
	`list [split a,,b, ,] [llength [split ,a,,b, ,]] [lindex [split a::b :] 1]`,
	`foreach f [split a::b: :] { lappend o "<$f>" }; set o`,
	`set b [split "x y" ""]; list [llength $b] $b`,
	`rename lindex li; proc lindex {l i} { return shadow }; set l {a b}; list [lindex $l 0] [li $l 1]`,
	`proc llength {l} { return 99 }; set l {a b}; list [llength $l] [llength {x}]`,
	`rename split sp; list [catch {split a b} m] $m [sp a,b ,]`,
	`proc r {n} { set loc [expr {$n * 2}]; if {$n == 0} { return $loc }; set sub [r [expr {$n - 1}]]; expr {$sub + $loc} }; r 20`,
	`proc mk {} { uplevel 1 {set made 7} }; proc host {} { mk; return $made }; list [host] [catch {set made}]`,
	`proc u {a} { set b 1; unset a; list [info exists a] [info exists b] [info locals] }; u 5`,
	`proc c {} { return c }; proc b {} { set y 5; uplevel 1 {c}; return $y }; proc a {} { b }; a`,
	`proc f {a {b 2} args} { list $a $b $args }; list [f 1] [f 1 2 3 4]`,
	`set a(x) 1; list [catch {set a foo} m] $m [catch {foreach a {1} {}} m2] $m2`,
	`lindex {a {b c} d} 1`,
	`list [lindex {a b} end] [lindex {a b} 5] [llength {}]`,
	`lindex {a b} x`,
}

// runEquiv evaluates script in the given mode on a fresh interpreter and
// reports everything the differential check compares. When warm is set
// the script runs twice (state reset in between where possible is not
// attempted — warm runs compare warm-vs-warm across modes instead).
func runEquiv(mode EvalMode, script string, warm bool) (res Result, info string, steps int64, out string) {
	var sb strings.Builder
	i := New()
	i.SetEvalMode(mode)
	i.Stdout = &sb
	i.Stderr = &sb
	i.StepLimit = 100000
	if warm {
		i.EvalScript(script)
		i.ErrorInfo = ""
	}
	res = i.EvalScript(script)
	return res, i.ErrorInfo, i.Steps(), sb.String()
}

func TestVMEquivalence(t *testing.T) {
	for _, script := range vmEquivScripts {
		for _, warm := range []bool{false, true} {
			rc, infoC, stepsC, outC := runEquiv(EvalClassic, script, warm)
			rm, infoM, stepsM, outM := runEquiv(EvalVM, script, warm)
			label := fmt.Sprintf("warm=%v script=%q", warm, script)
			if rc != rm {
				t.Errorf("%s: result classic=%+v vm=%+v", label, rc, rm)
			}
			if infoC != infoM {
				t.Errorf("%s: errorinfo classic=%q vm=%q", label, infoC, infoM)
			}
			if stepsC != stepsM {
				t.Errorf("%s: steps classic=%d vm=%d", label, stepsC, stepsM)
			}
			if outC != outM {
				t.Errorf("%s: output classic=%q vm=%q", label, outC, outM)
			}
		}
	}
}

// TestVMStepLimitParity pins the satellite requirement that step counts
// are variant-neutral: a tight StepLimit must trip at the same step with
// the same error text in both modes.
func TestVMStepLimitParity(t *testing.T) {
	const script = `set n 0; while {1} { incr n }`
	var ref Result
	var refSteps int64
	for k, mode := range []EvalMode{EvalClassic, EvalVM} {
		i := New()
		i.SetEvalMode(mode)
		i.StepLimit = 500
		res := i.EvalScript(script)
		if res.Code != Error || !strings.Contains(res.Value, "step limit exceeded") {
			t.Fatalf("%s: expected step-limit error, got %+v", mode, res)
		}
		if k == 0 {
			ref, refSteps = res, i.Steps()
			continue
		}
		if res != ref {
			t.Errorf("%s: result %+v, classic %+v", mode, res, ref)
		}
		if i.Steps() != refSteps {
			t.Errorf("%s: steps %d, classic %d", mode, i.Steps(), refSteps)
		}
	}
}

// TestVMHookParity checks that Trace and DispatchHook, armed together,
// observe the same command sequence under vm evaluation as under classic:
// Trace needs each command's substituted words, so it drops the
// specialized sites back to the generic dispatch path.
func TestVMHookParity(t *testing.T) {
	const script = `set a 1; incr a; if {$a > 1} { set b [expr {$a * 2}] }; foreach x {1 2} { set c $x }`
	seq := func(mode EvalMode) (trace, hook []string) {
		i := New()
		i.SetEvalMode(mode)
		i.Trace = func(depth int, words []string) {
			trace = append(trace, fmt.Sprintf("%d:%s", depth, strings.Join(words, " ")))
		}
		i.DispatchHook = func(name string, depth int, d time.Duration) {
			hook = append(hook, fmt.Sprintf("%d:%s", depth, name))
		}
		if res := i.EvalScript(script); res.Code != OK {
			t.Fatalf("%s: %+v", mode, res)
		}
		return trace, hook
	}
	traceC, hookC := seq(EvalClassic)
	traceM, hookM := seq(EvalVM)
	if strings.Join(traceC, "\n") != strings.Join(traceM, "\n") {
		t.Errorf("trace diverged:\nclassic:\n%s\nvm:\n%s", strings.Join(traceC, "\n"), strings.Join(traceM, "\n"))
	}
	if strings.Join(hookC, "\n") != strings.Join(hookM, "\n") {
		t.Errorf("dispatch hook diverged:\nclassic:\n%s\nvm:\n%s", strings.Join(hookC, "\n"), strings.Join(hookM, "\n"))
	}
}

// hookOnlyScripts drive the hook-only parity leg: every specialized
// opcode, errors raised inside if/while/foreach conditions and bodies,
// break/continue/return leaving the specialized loops, a rebound set,
// and generic dispatch around them.
var hookOnlyScripts = []string{
	`set a 1; set a; incr a; incr a 5; set b [expr {$a * 2}]; expr {$b + 1}`,
	`set n v; set $n 3; incr $n; set v`,
	`if {1 < 2} then {set r yes} else {set r no}`,
	`if {0} {set r a} elseif {1} {set r b} else {set r c}; set r`,
	`if {0} {set r x}; set r none`,
	`set x 0; while {$x < 4} { incr x }; set x`,
	`set s 0; foreach a {1 2 3 4} { incr s $a; incr s }; set s`,
	`if {1} {error boom}`,
	`if {[nosuch]} {set r 1}`,
	`set x 0; while {$x < 3} { incr x; if {$x == 2} { incr missing } }`,
	`while {$undefined} {}`,
	`foreach v {1 2 3} { expr {$v / ($v - 2)} }`,
	`catch {foreach v {a b} { error "in $v" }} msg; set msg`,
	`set n 0; while {1} { incr n; if {$n > 2} break }; set n`,
	`set l {}; foreach x {1 2 3 4} { if {$x % 2} continue; lappend l $x }; set l`,
	`proc w {} { set k 0; while {1} { incr k; if {$k == 3} { return k$k } } }; w`,
	`proc f {} { foreach x {a b c} { if {$x == "b"} { return $x } }; return none }; f`,
	`proc g {n} { if {$n < 2} { return $n }; expr {[g [expr {$n-1}]] + [g [expr {$n-2}]]} }; g 6`,
	`rename set oldset; proc set {args} { return rebound }; set a 1`,
	`rename incr oldincr; proc incr {v} { upvar 1 $v x; set x [expr {$x + 10}] }; set q 1; incr q; set q`,
	`while {1} { break }; foreach v {} { set never 1 }; expr {1 ? 2 : 3}`,
}

// dispatchLog runs script under mode with only DispatchHook armed and
// returns every report as "depth:name", plus the result, ErrorInfo and
// step count.
func dispatchLog(mode EvalMode, script string, limit int64) (log []string, res Result, info string, steps int64) {
	i := New()
	i.SetEvalMode(mode)
	i.Stdout = io.Discard
	i.StepLimit = limit
	i.DispatchHook = func(name string, depth int, d time.Duration) {
		log = append(log, fmt.Sprintf("%d:%s", depth, name))
	}
	res = i.EvalScript(script)
	return log, res, i.ErrorInfo, i.Steps()
}

// TestVMHookOnlyParity arms DispatchHook without Trace, which leaves the
// vm on its specialized fast paths: each script must report the same
// (depth, name) sequence with the same step count, result and ErrorInfo
// as the classic referee. The step-limit sweep exhausts the budget at
// every step of a mixed script, so a specialized site cut short at its
// own charge, inside its body, or on its condition reports exactly what
// classic reports. The fast-paths leg proves the premise: the hooked vm
// really ran its specialized sites, not generic dispatch.
func TestVMHookOnlyParity(t *testing.T) {
	check := func(label, script string, limit int64) {
		t.Helper()
		logC, resC, infoC, stepsC := dispatchLog(EvalClassic, script, limit)
		logM, resM, infoM, stepsM := dispatchLog(EvalVM, script, limit)
		if got, want := strings.Join(logM, " "), strings.Join(logC, " "); got != want {
			t.Errorf("%s: dispatches\n got: %s\nwant: %s", label, got, want)
		}
		if resM != resC || infoM != infoC || stepsM != stepsC {
			t.Errorf("%s: got %+v/%q/%d steps, classic %+v/%q/%d steps",
				label, resM, infoM, stepsM, resC, infoC, stepsC)
		}
	}
	for _, script := range hookOnlyScripts {
		check(fmt.Sprintf("%q", script), script, 0)
	}
	const sweep = `set t 0; foreach n {1 2 3} { if {$n % 2} { incr t $n } else { set t [expr {$t * 2}] } }; while {$t < 12} { incr t }; set t`
	_, _, _, total := dispatchLog(EvalClassic, sweep, 0)
	for limit := int64(1); limit <= total; limit++ {
		check(fmt.Sprintf("step limit %d", limit), sweep, limit)
	}
	t.Run("fast paths", testVMHookKeepsFastPaths)
}

// testVMHookKeepsFastPaths checks that DispatchHook alone does not push
// the vm's specialized sites onto generic dispatch. After a warm hooked
// run, the canonical entries of the specialized commands in the
// command table are swapped for counting wrappers without advancing the
// command epoch, so the specialization guards still pass; a hooked rerun
// must report the same dispatches without reaching any wrapper.
func testVMHookKeepsFastPaths(t *testing.T) {
	const script = `set a 1; incr a; set b [expr {$a * 2}]; set b; if {$a > 1} {set c 1} else {set c 2}; while {$a < 5} {incr a}; foreach x {1 2} {set d $x}; set l {p q r}; set e [lindex $l [llength $l]]; foreach y $l {set d $y}; foreach z [split abc ""] {set d $z}; set a`
	i := New()
	i.SetEvalMode(EvalVM)
	var log []string
	i.DispatchHook = func(name string, depth int, d time.Duration) { log = append(log, name) }
	if res := i.EvalScript(script); res.Code != OK || res.Value != "5" {
		t.Fatalf("warm run: %+v", res)
	}
	warm := strings.Join(log, " ")
	generic := map[string]int{}
	for name := range canonicalBuiltins {
		name, cmd := name, i.commands[name]
		i.commands[name] = func(in *Interp, args []string) Result {
			generic[name]++
			return cmd(in, args)
		}
	}
	log = nil
	if res := i.EvalScript(script); res.Code != OK || res.Value != "5" {
		t.Fatalf("hooked rerun: %+v", res)
	}
	if len(generic) != 0 {
		t.Errorf("hooked vm reached the command table for specialized sites: %v", generic)
	}
	if got := strings.Join(log, " "); got != warm {
		t.Errorf("rerun dispatches %q, warm run %q", got, warm)
	}
}

// TestVMHookedLoopAllocs guards the cost of observation: a vm loop of
// specialized commands allocates no more per run with DispatchHook armed
// than without it.
func TestVMHookedLoopAllocs(t *testing.T) {
	const script = `set s 0; set n 0; while {$n < 50} { incr n; set s [expr {$s + $n}]; if {$n % 2} { set odd $n } }; set s`
	allocs := func(hooked bool) float64 {
		i := New()
		i.SetEvalMode(EvalVM)
		if hooked {
			calls := 0
			i.DispatchHook = func(string, int, time.Duration) { calls++ }
		}
		if res := i.EvalScript(script); res.Code != OK || res.Value != "1275" {
			t.Fatalf("hooked=%v: %+v", hooked, res)
		}
		return testing.AllocsPerRun(20, func() { i.EvalScript(script) })
	}
	if unhooked, hooked := allocs(false), allocs(true); hooked > unhooked {
		t.Errorf("hooked loop allocates %.0f per run, unhooked %.0f", hooked, unhooked)
	}
}

// TestVMHookMidStream arms DispatchHook after the vm has already compiled
// and specialized the script: the specialized sites must start reporting
// without recompilation.
func TestVMHookMidStream(t *testing.T) {
	const script = `set a 1; incr a 2; set a`
	i := New()
	i.SetEvalMode(EvalVM)
	if res := i.EvalScript(script); res.Code != OK || res.Value != "3" {
		t.Fatalf("cold run: %+v", res)
	}
	var hook []string
	i.DispatchHook = func(name string, depth int, d time.Duration) { hook = append(hook, name) }
	if res := i.EvalScript(script); res.Code != OK || res.Value != "3" {
		t.Fatalf("hooked run: %+v", res)
	}
	want := "set,incr,set"
	if got := strings.Join(hook, ","); got != want {
		t.Errorf("dispatch hook saw %q, want %q", got, want)
	}
}

func TestEvalModeRoundTrip(t *testing.T) {
	for _, m := range []EvalMode{EvalClassic, EvalVM} {
		got, ok := ParseEvalMode(m.String())
		if !ok || got != m {
			t.Errorf("ParseEvalMode(%q) = %v, %v", m.String(), got, ok)
		}
	}
	if _, ok := ParseEvalMode("turbo"); ok {
		t.Errorf("ParseEvalMode accepted unknown mode")
	}
	i := New()
	if i.EvalMode() != EvalVM {
		t.Errorf("default mode = %v, want vm", i.EvalMode())
	}
	if res := i.EvalScript(`set a 5; expr {$a * 2}`); res.Value != "10" {
		t.Fatalf("vm eval: %+v", res)
	}
	// Switching modes mid-stream must keep interpreter state.
	i.SetEvalMode(EvalClassic)
	if res := i.EvalScript(`incr a`); res.Value != "6" {
		t.Fatalf("classic after vm: %+v", res)
	}
	i.SetEvalMode(EvalVM)
	if res := i.EvalScript(`incr a`); res.Value != "7" {
		t.Fatalf("vm after classic: %+v", res)
	}
}

// TestVMMutationDetected corrupts a lowered program's constant pool and
// checks the differential comparison actually reports the divergence —
// the proof that the equivalence harness has teeth.
func TestVMMutationDetected(t *testing.T) {
	const script = `set a 40; expr {$a + 2}`
	i := New()
	i.SetEvalMode(EvalVM)
	if res := i.EvalScript(script); res.Value != "42" {
		t.Fatalf("cold run: %+v", res)
	}
	// The front cache now holds the lowered program; corrupt the literal
	// "40" in its constant pool.
	if i.vmFront == nil || i.vmFrontKey != script {
		t.Fatalf("front cache not primed")
	}
	mutated := false
	for bi := range i.vmFront.prog.Consts {
		if i.vmFront.prog.Consts[bi].Text() == "40" {
			i.vmFront.prog.Consts[bi] = vm.StringValue("41")
			mutated = true
		}
	}
	if !mutated {
		t.Fatalf("constant pool holds no literal 40: %v", i.vmFront.prog.Consts)
	}
	ref := New()
	ref.SetEvalMode(EvalClassic)
	rc := ref.EvalScript(script)
	rv := i.EvalScript(script)
	if rc == rv {
		t.Fatalf("mutation was not detected: classic=%+v vm=%+v", rc, rv)
	}
}

// fallbackShapes are the scripts the vm does not lower in full: each
// holds a command it hands to the classic parser (OpCmd) or an expression
// it leaves to the classic evaluator.
var fallbackShapes = []struct {
	name, script string
	cmds, exprs  int // fallback sites the lowered program must hold
}{
	{"parse error mid-command", `set a 1; set b [set a] "unclosed`, 1, 0},
	{"poisoned bracket", `set a 1; set b [set c 2; set d {x]`, 1, 0},
	{"array ref without close paren", `set a(1) x; set b $a(1`, 1, 0},
	{"braced element name", `set a(b) 7; set c ${a(b)}; set c`, 1, 0},
	{"computed array index", `set i 2; set a(2) z; set b $a($i); set b`, 1, 0},
	{"failing computed-index command", `set i 2; set a(2) z; error "at $a($i)"`, 1, 0},
	{"return on the close bracket", `set i 1; set a(1) q; set r [return $a($i)]; set r`, 1, 0},
	{"return short of the close bracket", `set i 1; set a(1) q; set r [return $a($i); ]`, 1, 0},
	{"computed index in an expression bracket", `set i 1; set a(1) 4; expr {[set b $a($i)] + $i}`, 1, 0},
	{"quoted string on untaken && side", `set r [expr {0 && "[set touched 1]"}]; list $r $touched`, 0, 1},
	{"ternary cut before colon", `set v 1; expr {$v ? [incr v] }`, 0, 1},
	{"untaken bracket skip ends early", `expr {0 && [set x "]"]}`, 0, 1},
	{"doomed bracket on untaken side", `expr {0 && [set x "abc] )}`, 0, 1},
}

// fallbacks counts the OpCmd sites and unlowered expressions in a
// lowered program tree.
func fallbacks(p *vm.Program) (cmds, exprs int) {
	for _, in := range p.Code {
		if in.Op == vm.OpCmd {
			cmds++
		}
	}
	add := func(c, x int) { cmds, exprs = cmds+c, exprs+x }
	for _, b := range p.Blocks {
		if b.Prog != nil {
			add(fallbacks(b.Prog))
		}
	}
	for _, e := range p.Exprs {
		if !e.Lowered() {
			exprs++
			continue
		}
		for _, b := range e.Blocks {
			add(fallbacks(b.Prog))
		}
	}
	return cmds, exprs
}

// shapeRun evaluates script twice on one interpreter (cold, then warm)
// with a recording DispatchHook, flattening each pass's result,
// ErrorInfo, step count and (depth, name) log.
func shapeRun(mode EvalMode, script string) []string {
	i := New()
	i.SetEvalMode(mode)
	i.Stdout = io.Discard
	var log []string
	i.DispatchHook = func(name string, depth int, d time.Duration) {
		log = append(log, fmt.Sprintf("%d:%s", depth, name))
	}
	var passes []string
	for pass := 0; pass < 2; pass++ {
		log = nil
		res := i.EvalScript(script)
		passes = append(passes, fmt.Sprintf("%+v errorinfo=%q steps=%d hook=[%s]",
			res, i.ErrorInfo, i.Steps(), strings.Join(log, " ")))
	}
	return passes
}

// TestVMFallbackShapes runs every fallback shape cold and warm under the
// vm and the classic referee: the result, error, ErrorInfo, steps and
// dispatch-hook log must match on both passes, and the lowered program
// must really hold the fallback the shape names.
func TestVMFallbackShapes(t *testing.T) {
	for _, sh := range fallbackShapes {
		prog, _ := lowerRootScript(compileScript(sh.script, false))
		if cmds, exprs := fallbacks(prog); cmds != sh.cmds || exprs != sh.exprs {
			t.Errorf("%s: lowered with %d OpCmd and %d classic expressions, want %d and %d",
				sh.name, cmds, exprs, sh.cmds, sh.exprs)
		}
		classic, vmRuns := shapeRun(EvalClassic, sh.script), shapeRun(EvalVM, sh.script)
		for pass := range classic {
			if classic[pass] != vmRuns[pass] {
				t.Errorf("%s pass %d:\nclassic: %s\n     vm: %s", sh.name, pass, classic[pass], vmRuns[pass])
			}
		}
	}
}
