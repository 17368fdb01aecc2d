package tcl

import (
	"strings"
	"testing"

	"repro/internal/tcl/vm"
)

// TestSplitAndIndexKeepBytes: split into characters and string index
// work on bytes, so every byte value, 0x80 and up included, survives a
// split/join round trip and indexes as string range does.
func TestSplitAndIndexKeepBytes(t *testing.T) {
	for mode, i := range bothModes() {
		for b := 0; b < 256; b++ {
			s := "a" + string([]byte{byte(b)}) + "z"
			i.SetVar("s", s)
			if got, err := i.Eval(`join [split $s ""] ""`); err != nil || got != s {
				t.Errorf("%s, byte %#02x: join of split = %q, %v; want %q", mode, b, got, err, s)
			}
			if got, err := i.Eval(`foreach c [split $s ""] { lappend out $c }; join $out ""`); err != nil || got != s {
				t.Errorf("%s, byte %#02x: foreach over split = %q, %v; want %q", mode, b, got, err, s)
			}
			i.UnsetVar("out")
			for k := 0; k < len(s); k++ {
				i.SetVar("k", string(rune('0'+k)))
				idx, err1 := i.Eval(`string index $s $k`)
				rng, err2 := i.Eval(`string range $s $k $k`)
				if err1 != nil || err2 != nil || idx != rng || idx != s[k:k+1] {
					t.Errorf("%s, byte %#02x at %d: string index %q (%v), string range %q (%v)", mode, b, k, idx, err1, rng, err2)
				}
			}
		}
	}
}

// TestWritesKeepVariableKind: a write never changes a variable between
// scalar and array; set, append, lappend, array set and a foreach loop
// variable refuse with Tcl's errors, in both modes, byte for byte, and at
// the global level as in a proc frame.
func TestWritesKeepVariableKind(t *testing.T) {
	const isArray = `can't set "a": variable is array`
	const notArray = `can't set "a(x)": variable isn't array`
	cases := []struct{ script, want, err string }{
		{`set a(x) 1; set a foo`, "", isArray},
		{`set a(x) 1; set v foo; set a $v`, "", isArray},
		{`set a(x) 1; append a foo`, "", isArray},
		{`set a(x) 1; lappend a foo`, "", isArray},
		{`set a(x) 1; foreach a {1 2} {}`, "", isArray},
		{`set a(x) 1; set l {1 2}; foreach a $l {}`, "", isArray},
		{`set a 1; set a(x) 2`, "", notArray},
		{`set a 1; append a(x) 2`, "", notArray},
		{`set a 1; lappend a(x) 2`, "", notArray},
		{`set a 1; array set a {x 2}`, "", notArray},
		{`set a(x) 1; catch {set a foo}; array get a`, "x 1", ""},
		{`set a 1; catch {set a(x) 2}; set a`, "1", ""},
		{`set a(x) 1; set a(y) 2; array size a`, "2", ""},
		{`set a 1; set a 2; append a 3; lappend a 4`, "23 4", ""},
		{`proc p {} { global a; set a(x) 1; array names a }; p`, "x", ""},
		{`proc p {} { upvar 1 a b; set b(x) 1 }; p; array names a`, "x", ""},
	}
	for _, tc := range cases {
		scripts := []string{tc.script}
		if !strings.HasPrefix(tc.script, "proc") {
			scripts = append(scripts, "proc body {} {"+tc.script+"}; body")
		}
		for _, script := range scripts {
			var outs [2]string
			for m, mode := range []EvalMode{EvalClassic, EvalVM} {
				i := New()
				i.SetEvalMode(mode)
				got, err := i.Eval(script)
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				if got != tc.want || msg != tc.err {
					t.Errorf("%s %q = %q, %q; want %q, %q", mode, script, got, msg, tc.want, tc.err)
				}
				outs[m] = got + "|" + msg + "|" + i.ErrorInfo
			}
			if outs[0] != outs[1] {
				t.Errorf("%q: classic %q, vm %q", script, outs[0], outs[1])
			}
		}
	}
}

// TestResultWritesKeepVariableKind: catch, regexp, regsub and scan store
// their results through the same kind check as set, and report a
// refused write as an error instead of dropping the result, in both
// modes, byte for byte, at the global level as in a proc frame. catch
// reports it with Tcl's own message.
func TestResultWritesKeepVariableKind(t *testing.T) {
	const isArray = `can't set "a": variable is array`
	const notArray = `can't set "s(x)": variable isn't array`
	const catchErr = "couldn't save command result in variable"
	cases := []struct{ script, want, err string }{
		{`set a(x) 1; catch {set y 2} a`, "", catchErr},
		{`set a(x) 1; list [catch {catch {set y 2} a} m] $m [array names a]`, "1 {" + catchErr + "} x", ""},
		{`set s 1; catch {set y 2} s(x)`, "", catchErr},
		{`set s 1; catch {catch {set y 2} s(x)}; set s`, "1", ""},
		{`set a(x) 1; regexp {b+} abbc a`, "", isArray},
		{`set s 1; regexp {(b)(c)} abc m s(x)`, "", notArray},
		{`set a(x) 1; regsub b abc B a`, "", isArray},
		{`set a(x) 1; scan 12 %d a`, "", isArray},
		{`set s 1; scan 12 %d s(x)`, "", notArray},
		{`set a(x) 1; list [catch {scan "1 2" "%d %d" p a} m] $m $p [array names a]`, "1 {" + isArray + "} 1 x", ""},
		{`set a(x) 1; catch {set y 2} a(y); list [lsort [array names a]] $a(y)`, "{x y} 2", ""},
		{`list [catch {error boom} r] $r [regexp {(b+)} abbc m s] $m $s [regsub -all b abbc B o] $o [scan "7 z" "%d %s" n w] $n $w`, "1 boom 1 bb bb 2 aBBc 2 7 z", ""},
	}
	for _, tc := range cases {
		for _, script := range []string{tc.script, "proc body {} {" + tc.script + "}; body"} {
			var outs [2]string
			for m, mode := range []EvalMode{EvalClassic, EvalVM} {
				i := New()
				i.SetEvalMode(mode)
				got, err := i.Eval(script)
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				if got != tc.want || msg != tc.err {
					t.Errorf("%s %q = %q, %q; want %q, %q", mode, script, got, msg, tc.want, tc.err)
				}
				outs[m] = got + "|" + msg + "|" + i.ErrorInfo
			}
			if outs[0] != outs[1] {
				t.Errorf("%q: classic %q, vm %q", script, outs[0], outs[1])
			}
		}
	}
}

// TestFrameEdges pins proc frames where names are bound outside a
// frame's slots or frames are reached out of order, in both modes.
func TestFrameEdges(t *testing.T) {
	cases := []struct{ name, script, want string }{
		{"uplevel hides the frame a callee returns into",
			`proc c {} { return c }; proc b {} { set y 5; uplevel 1 {c}; return $y }; proc a {} { b }; a`, "5"},
		{"uplevel creates a caller local",
			`proc mk {} { uplevel 1 {set made 7} }; proc host {} { mk; return $made }; host`, "7"},
		{"variadic formal after a defaulted one",
			`proc f {a {b 2} args} { list $a $b $args }; f 1`, "1 2 {}"},
		{"computed names",
			`proc p {n} { set $n 1; set ${n}2 2; list [set $n] [info locals] }; p v; p w`, "1 {n w w2}"},
		{"a name learned by a deeper call of the same proc",
			`proc r {n} { if {$n > 0} { r [expr {$n - 1}] } else { set deep 1 }; set late $n; info locals }; r 2`, "late n"},
		{"unset, then info exists and info locals",
			`proc u {a} { set b 1; unset a; list [info exists a] [info exists b] [info locals] }; u 5`, "0 1 b"},
		{"a link outlives the variable it aliases",
			`proc b {} { upvar 1 x y; uplevel 1 {unset x}; set y }; proc a {} { set x 7; b }; a`, "7"},
		{"global over an existing local",
			`set g 1; proc p {} { set g 2; global g; set g }; p`, "1"},
		{"recursion with locals",
			`proc r {n} { set loc [expr {$n * 2}]; if {$n == 0} { return $loc }; set sub [r [expr {$n - 1}]]; expr {$sub + $loc} }; r 20`, "420"},
	}
	for _, tc := range cases {
		for mode, i := range bothModes() {
			for pass := 0; pass < 2; pass++ {
				if got, err := i.Eval(tc.script); err != nil || got != tc.want {
					t.Errorf("%s, %s, pass %d: %q, %v; want %q", mode, tc.name, pass, got, err, tc.want)
				}
			}
		}
	}
}

// TestProcCallAllocs: a warm call of a proc with formals, a global link
// and new locals allocates nothing beyond its body evaluated at level 0
// with the formals set there: frames, their slots, the link and the
// locals all come from the interpreter's stacks.
func TestProcCallAllocs(t *testing.T) {
	const body = `global g; set c [expr {$a + $b}]; set d $c; incr g; set e [list $c $d]; foreach x $e { set f $x }; return $d`
	i := New()
	if _, err := i.Eval("set g 0; proc p {a b} {" + body + "}"); err != nil {
		t.Fatal(err)
	}
	const call = "p 1 2"
	const level0 = "set a 1; set b 2; " + body
	for _, script := range []string{call, level0} {
		if res := i.EvalScript(script); res.Value != "3" {
			t.Fatalf("%q: %+v", script, res)
		}
	}
	inProc := testing.AllocsPerRun(100, func() { i.EvalScript(call) })
	atLevel0 := testing.AllocsPerRun(100, func() { i.EvalScript(level0) })
	if inProc > atLevel0 {
		t.Errorf("proc call allocates %.1f per run, its body at level 0 %.1f", inProc, atLevel0)
	}
}

// TestListMemoIsVMOnly poisons a variable's list memo: the vm's lowered
// list reads serve the memo, which proves they use it, while the classic
// evaluator re-parses the string and stays an independent referee.
func TestListMemoIsVMOnly(t *testing.T) {
	i := New()
	if got, err := i.Eval("set l {a b c}; lindex $l 0"); err != nil || got != "a" {
		t.Fatalf("memoizing read: %q, %v", got, err)
	}
	v, ok := i.lookupVar("l")
	if !ok || v.list == nil {
		t.Fatalf("no list memo after a lowered lindex")
	}
	v.list = &vm.List{Items: []string{"poison"}}
	if got, _ := i.Eval("lindex $l 0"); got != "poison" {
		t.Errorf("vm lindex = %q, want the memo's %q", got, "poison")
	}
	i.SetEvalMode(EvalClassic)
	for _, script := range []string{"lindex $l 0", "llength $l", "foreach x $l { lappend out $x }; set out"} {
		if got, _ := i.Eval(script); got == "poison" || got == "1" {
			t.Errorf("classic %q = %q: read the list memo", script, got)
		}
	}
}
