package tcl

import (
	"testing"

	"repro/internal/tcl/vm"
)

// The golden disassemblies pin the lowered form of one exemplar per
// opcode family. They are deliberately exact: register numbering, pool
// interning order, jump targets, and slot assignment are all part of the
// compiler's contract with the executor, and an unintentional change to
// any of them shows up here as a readable diff rather than as a perf or
// semantics surprise downstream.
var disasmScriptGoldens = []struct {
	src    string
	golden string
}{
	{
		// literal set (const/setvar)
		src: "set a 1",
		golden: `program regs=1 slots{cmds=0 vars=1 specs=1}
  0000 const    r0 = c0
  0001 setvar   a0 $n0 = r0 slot=0
const c0 = str "1"
name n0 = "a"
words w0 = ["set" "a" "1"]
aux a0 = name="set" lit=0 cache=-1 spec=0
`,
	},
	{
		// variable copy (var/setvar)
		src: "set x $y",
		golden: `program regs=1 slots{cmds=0 vars=2 specs=1}
  0000 var      r0 = $n0 slot=0
  0001 setvar   a0 $n1 = r0 slot=1
name n0 = "y"
name n1 = "x"
aux a0 = name="set" lit=-1 cache=-1 spec=0
`,
	},
	{
		// literal incr
		src: "incr n 2",
		golden: `program regs=0 slots{cmds=0 vars=1 specs=1}
  0000 incr     a0 $n0 += c0 slot=0
const c0 = int 2
name n0 = "n"
words w0 = ["incr" "n" "2"]
aux a0 = name="incr" lit=0 cache=-1 spec=0
`,
	},
	{
		// bracket + exprcmd
		src: "set b [expr {$a + 1}]",
		golden: `program regs=1 slots{cmds=0 vars=2 specs=2}
  0000 bracket  r0 = b0
  0001 setvar   a0 $n0 = r0 slot=1
name n0 = "b"
aux a0 = name="set" lit=-1 cache=-1 spec=0
block b0 src=""
  program regs=0 atbracket
    0000 exprcmd  a0 e0
  words w0 = ["expr" "$a + 1"]
  aux a0 = name="expr" lit=0 bracketok cache=-1 spec=1
  expr e0
    expr regs=3 ctl=0 src="$a + 1"
      0000 var      r0 = $n0 slot=0
      0001 const    r1 = c0
      0002 add      r2 = r0 + r1
      0003 end      r2
    const c0 = int 1
    name n0 = "a"
`,
	},
	{
		// if/else (spec/test/ifbody)
		src: "if {$a < 10} { incr a } else { set a 0 }",
		golden: `program regs=0 slots{cmds=0 vars=3 specs=3}
  0000 spec     a0 generic-> 0004
  0001 test     a0 e0 false-> 0003
  0002 ifbody   a0 b0 join-> 0004
  0003 ifbody   a0 b1 join-> 0004
words w0 = ["if" "$a < 10" " incr a " "else" " set a 0 "]
aux a0 = name="if" lit=0 cache=-1 spec=0
block b0 src=" incr a "
  program regs=0
    0000 incr     a0 $n0 += 1 slot=1
  name n0 = "a"
  words w0 = ["incr" "a"]
  aux a0 = name="incr" lit=0 cache=-1 spec=1
block b1 src=" set a 0 "
  program regs=1
    0000 const    r0 = c0
    0001 setvar   a0 $n0 = r0 slot=2
  const c0 = str "0"
  name n0 = "a"
  words w0 = ["set" "a" "0"]
  aux a0 = name="set" lit=0 cache=-1 spec=2
expr e0
  expr regs=3 ctl=0 src="$a < 10"
    0000 var      r0 = $n0 slot=0
    0001 const    r1 = c0
    0002 lt       r2 = r0 < r1
    0003 end      r2
  const c0 = int 10
  name n0 = "a"
`,
	},
	{
		// while (loop/done)
		src: "while {$i > 0} { incr i -1 }",
		golden: `program regs=0 slots{cmds=0 vars=2 specs=2}
  0000 spec     a0 generic-> 0004
  0001 test     a0 e0 false-> 0003
  0002 loop     a0 b0 back-> 0001
  0003 done     a0
words w0 = ["while" "$i > 0" " incr i -1 "]
aux a0 = name="while" lit=0 cache=-1 spec=0
block b0 src=" incr i -1 "
  program regs=0
    0000 incr     a0 $n0 += c0 slot=1
  const c0 = int -1
  name n0 = "i"
  words w0 = ["incr" "i" "-1"]
  aux a0 = name="incr" lit=0 cache=-1 spec=1
expr e0
  expr regs=3 ctl=0 src="$i > 0"
    0000 var      r0 = $n0 slot=0
    0001 const    r1 = c0
    0002 gt       r2 = r0 > r1
    0003 end      r2
  const c0 = int 0
  name n0 = "i"
`,
	},
	{
		// foreach over a literal list (a constant list value) + generic
		// invoke
		src: "foreach v {1 2 3} { incr sum $v }",
		golden: `program regs=4 slots{cmds=1 vars=2 specs=1}
  0000 const    r0 = c0
  0001 const    r1 = c1
  0002 const    r2 = c2
  0003 spec     a0 generic-> 0008
  0004 const    r3 = c3
  0005 fornext  a0 f0 done-> 0007
  0006 loop     a0 b0 back-> 0005
  0007 done     a0
const c0 = str "v"
const c1 = list ["1" "2" "3"]
const c2 = str " incr sum $v "
const c3 = int 0
name n0 = "v"
words w0 = ["foreach" "v" "1 2 3" " incr sum $v "]
aux a0 = name="foreach" lit=0 cache=-1 spec=0 args=r0#3
foreach f0 = list=r1 ctr=r3 var=n0 slot=0
block b0 src=" incr sum $v "
  program regs=3
    0000 const    r0 = c0
    0001 const    r1 = c1
    0002 var      r2 = $n0 slot=1
    0003 invoke   a0 args=r0#3
  const c0 = str "incr"
  const c1 = str "sum"
  name n0 = "v"
  aux a0 = name="incr" lit=-1 cache=0 spec=-1
`,
	},
	{
		// foreach over a bracket's native list (split)
		src: "foreach c [split $w {}] { incr n }",
		golden: `program regs=4 slots{cmds=0 vars=3 specs=3}
  0000 const    r0 = c0
  0001 bracket  r1 = b0
  0002 const    r2 = c1
  0003 spec     a0 generic-> 0008
  0004 const    r3 = c2
  0005 fornext  a0 f0 done-> 0007
  0006 loop     a0 b1 back-> 0005
  0007 done     a0
const c0 = str "c"
const c1 = str " incr n "
const c2 = int 0
name n0 = "c"
aux a0 = name="foreach" lit=-1 cache=-1 spec=0 args=r0#3
foreach f0 = list=r1 ctr=r3 var=n0 slot=1
block b0 src=""
  program regs=2 atbracket
    0000 var      r0 = $n0 slot=0
    0001 const    r1 = c0
    0002 split    a0
  const c0 = str ""
  name n0 = "w"
  aux a0 = name="split" lit=-1 bracketok cache=-1 spec=1 args=r0#2
block b1 src=" incr n "
  program regs=0
    0000 incr     a0 $n0 += 1 slot=2
  name n0 = "n"
  words w0 = ["incr" "n"]
  aux a0 = name="incr" lit=0 cache=-1 spec=2
`,
	},
	{
		// list reads of a variable's list form (var ... list)
		src: "lindex $l [llength $l]",
		golden: `program regs=2 slots{cmds=0 vars=2 specs=2}
  0000 var      r0 = $n0 slot=0 list
  0001 bracket  r1 = b0
  0002 lindex   a0
name n0 = "l"
aux a0 = name="lindex" lit=-1 cache=-1 spec=0 args=r0#2
block b0 src=""
  program regs=1 atbracket
    0000 var      r0 = $n0 slot=1 list
    0001 llength  a0
  name n0 = "l"
  aux a0 = name="llength" lit=-1 bracketok cache=-1 spec=1 args=r0#1
`,
	},
	{
		// interpolation (concat) + invoke
		src: "puts \"hi $name\"",
		golden: `program regs=4 slots{cmds=1 vars=1 specs=0}
  0000 const    r0 = c0
  0001 const    r2 = c1
  0002 var      r3 = $n0 slot=0
  0003 concat   r1 = r2..r3
  0004 invoke   a0 args=r0#2
const c0 = str "puts"
const c1 = str "hi "
name n0 = "name"
aux a0 = name="puts" lit=-1 cache=0 spec=-1
`,
	},
	{
		// literal invoke
		src: "lappend l a b",
		golden: `program regs=0 slots{cmds=1 vars=0 specs=0}
  0000 invoke   a0 lit
words w0 = ["lappend" "l" "a" "b"]
aux a0 = name="lappend" lit=0 cache=0 spec=-1
`,
	},
	{
		// array read (arr)
		src: "set a(k) 3; puts $a(k)",
		golden: `program regs=2 slots{cmds=2 vars=1 specs=0}
  0000 invoke   a0 lit
  0001 const    r0 = c0
  0002 arr      r1 = $n0(n1) slot=0
  0003 invoke   a1 args=r0#2
const c0 = str "puts"
name n0 = "a"
name n1 = "k"
words w0 = ["set" "a(k)" "3"]
aux a0 = name="set" lit=0 cache=0 spec=-1
aux a1 = name="puts" lit=-1 cache=1 spec=-1
`,
	},
}

var disasmExprGoldens = []struct {
	src    string
	golden string
}{
	{
		// arithmetic (const/var/mul/add)
		src: "1 + 2 * $x",
		golden: `expr regs=5 ctl=0 src="1 + 2 * $x"
  0000 const    r0 = c0
  0001 const    r1 = c1
  0002 var      r2 = $n0 slot=0
  0003 mul      r3 = r1 * r2
  0004 add      r4 = r0 + r3
  0005 end      r4
const c0 = int 1
const c1 = int 2
name n0 = "x"
`,
	},
	{
		// lazy and (and?/and=)
		src: "$a < 5 && $b",
		golden: `expr regs=5 ctl=1 src="$a < 5 && $b"
  0000 var      r0 = $n0 slot=0
  0001 const    r1 = c0
  0002 lt       r2 = r0 < r1
  0003 and?     r2
  0004 var      r3 = $n1 slot=1
  0005 and=     r4 = r2, r3
  0006 end      r4
const c0 = int 5
name n0 = "a"
name n1 = "b"
`,
	},
	{
		// ternary (tern?/tern:/tern=)
		src: "$x ? $y : 0",
		golden: `expr regs=4 ctl=1 src="$x ? $y : 0"
  0000 var      r0 = $n0 slot=0
  0001 tern?    r0
  0002 var      r1 = $n1 slot=1
  0003 tern:    
  0004 const    r2 = c0
  0005 tern=    r3 = r1, r2
  0006 end      r3
const c0 = int 0
name n0 = "x"
name n1 = "y"
`,
	},
	{
		// unary + math func
		src: "abs(-$n)",
		golden: `expr regs=3 ctl=0 src="abs(-$n)"
  0000 var      r0 = $n0 slot=0
  0001 unary    r1 = - r0
  0002 func     r2 = m0(r1)
  0003 end      r2
name n0 = "n"
func m0 = "abs"
`,
	},
	{
		// command bracket
		src: "[cmd] + 1",
		golden: `expr regs=3 ctl=0 src="[cmd] + 1"
  0000 bracket  r0 = b0
  0001 const    r1 = c0
  0002 add      r2 = r0 + r1
  0003 end      r2
const c0 = int 1
block b0 src=""
  program regs=0 atbracket
    0000 invoke   a0 lit
  words w0 = ["cmd"]
  aux a0 = name="cmd" lit=0 bracketok cache=0 spec=-1
`,
	},
}

func TestVMDisasmGolden(t *testing.T) {
	for _, tc := range disasmScriptGoldens {
		p, _ := lowerRootScript(compileScript(tc.src, false))
		if got := vm.Disasm(p); got != tc.golden {
			t.Errorf("script %q disassembly changed:\n--- want ---\n%s--- got ---\n%s", tc.src, tc.golden, got)
		}
	}
	for _, tc := range disasmExprGoldens {
		p, _, _ := lowerRootExpr(tc.src)
		if got := vm.DisasmExpr(p); got != tc.golden {
			t.Errorf("expr %q disassembly changed:\n--- want ---\n%s--- got ---\n%s", tc.src, tc.golden, got)
		}
	}
}

// TestVMDisasmStability lowers every golden source twice from scratch and
// requires byte-identical disassembly: compilation must be a pure
// function of the source, with no ordering dependence on interning maps
// or other iteration-order hazards.
func TestVMDisasmStability(t *testing.T) {
	for _, tc := range disasmScriptGoldens {
		a, _ := lowerRootScript(compileScript(tc.src, false))
		b, _ := lowerRootScript(compileScript(tc.src, false))
		if vm.Disasm(a) != vm.Disasm(b) {
			t.Errorf("script %q: two lowerings disagree:\n%s\nvs\n%s", tc.src, vm.Disasm(a), vm.Disasm(b))
		}
	}
	for _, tc := range disasmExprGoldens {
		a, _, _ := lowerRootExpr(tc.src)
		b, _, _ := lowerRootExpr(tc.src)
		if vm.DisasmExpr(a) != vm.DisasmExpr(b) {
			t.Errorf("expr %q: two lowerings disagree:\n%s\nvs\n%s", tc.src, vm.DisasmExpr(a), vm.DisasmExpr(b))
		}
	}
}
