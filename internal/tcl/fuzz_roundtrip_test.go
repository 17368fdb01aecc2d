package tcl

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// This file is the parser's round-trip fuzz harness: render a compiled
// skeleton (compile.go) back into source text and require the result to
// be a fixpoint — the rendered text must recompile cleanly, re-render to
// itself byte-for-byte, and evaluate identically under the vm and the
// classic evaluator. The renderer is deliberately test-only: it proves
// the skeleton retains everything the source said, which is exactly the
// property the vm's lowering depends on.

// renderScript turns a compiled skeleton back into equivalent source
// text. Trees that embed parse errors (doomed scripts, poisoned or
// failing commands) are not renderable — they encode error *timing*, not
// structure — so ok=false tells the caller to skip.
func renderScript(cs *compiledScript) (string, bool) {
	if cs.doomed() {
		return "", false
	}
	cmds := make([]string, 0, len(cs.cmds))
	for k := range cs.cmds {
		cmd := &cs.cmds[k]
		if cmd.parseErr || cmd.poisoned {
			return "", false
		}
		words := make([]string, 0, len(cmd.words))
		for j := range cmd.words {
			w, ok := renderWord(&cmd.words[j])
			if !ok {
				return "", false
			}
			words = append(words, w)
		}
		cmds = append(cmds, strings.Join(words, " "))
	}
	return strings.Join(cmds, "\n"), true
}

func renderWord(w *compiledWord) (string, bool) {
	if w.segs == nil {
		if w.lit == "" {
			return "{}", true
		}
		return escapeLiteral(w.lit), true
	}
	return renderSegs(w.segs)
}

func renderSegs(segs []wordSeg) (string, bool) {
	var sb strings.Builder
	for k := range segs {
		s, ok := renderSeg(&segs[k])
		if !ok {
			return "", false
		}
		sb.WriteString(s)
	}
	return sb.String(), true
}

func renderSeg(seg *wordSeg) (string, bool) {
	switch seg.kind {
	case segLiteral:
		return escapeLiteral(seg.text), true
	case segVar:
		// ${name} is the one spelling that round-trips every name; a name
		// containing '}' has no such spelling.
		if strings.IndexByte(seg.text, '}') >= 0 {
			return "", false
		}
		return "${" + seg.text + "}", true
	case segVarArr:
		idx, ok := renderSegs(seg.index)
		if !ok {
			return "", false
		}
		return "$" + seg.text + "(" + idx + ")", true
	case segScript:
		if seg.script.doomed() || !seg.script.endAtBracket {
			return "", false
		}
		body, ok := renderScript(seg.script)
		if !ok {
			return "", false
		}
		return "[" + body + "]", true
	}
	return "", false
}

// escapeLiteral spells literal text so the parser reads back exactly
// these bytes: every structurally meaningful byte is backslash-escaped
// (backslashSubst returns unknown escaped bytes verbatim), and the three
// whitespace bytes with named escapes use those, since a raw newline
// would end the command instead.
func escapeLiteral(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		switch ch := s[i]; ch {
		case '\t':
			sb.WriteString(`\t`)
		case '\r':
			sb.WriteString(`\r`)
		case '\n':
			sb.WriteString(`\n`)
		case ' ', ';', '[', ']', '$', '\\', '"', '{', '}', '(', ')', '#':
			sb.WriteByte('\\')
			sb.WriteByte(ch)
		default:
			sb.WriteByte(ch)
		}
	}
	return sb.String()
}

// FuzzParseRoundTrip: for any input that parses cleanly, rendering the
// skeleton must produce source that (1) recompiles without a parse
// error, (2) is a render fixpoint — render(compile(r)) == r — and
// (3) evaluates identically under the vm and the classic evaluator.
// A failure in (1) or (2) means the skeleton dropped or distorted
// structure; a failure in (3) means the two evaluators disagree about a
// script whose structure is fully known — the sharpest divergence the
// eval axis of the conformance harness can hope to find.
func FuzzParseRoundTrip(f *testing.F) {
	// The shipped scripts are the richest clean inputs we have: real
	// control flow, quoted prompts, bracket substitutions, comments.
	exps, _ := filepath.Glob(filepath.Join("..", "..", "scripts", "*.exp"))
	for _, path := range exps {
		if data, err := os.ReadFile(path); err == nil {
			f.Add(string(data))
		}
	}
	for _, s := range []string{
		`set a(x y) [list 1 {2 3}]; set a(x\ y)`,
		`puts "braced { and \[bracket\] and $dollar"`,
		`proc p {a {b 2}} { expr {$a + $b} }; p 40`,
		"set x {multi\nline\tbody}; string length $x",
		`set i 0; while {$i < 3} {incr i; # comment
}; set i`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		if len(script) > 1024 {
			t.Skip("bounded script size")
		}
		if hasLongDigitRun(script, 8) {
			t.Skip("pathological numeric literal")
		}
		r1, ok := renderScript(compileScript(script, false))
		if !ok {
			t.Skip("input embeds a parse error; error timing is the eval-parity fuzzer's job")
		}
		cs2 := compileScript(r1, false)
		r2, ok := renderScript(cs2)
		if !ok {
			t.Fatalf("rendered script no longer parses cleanly:\nsource:   %q\nrendered: %q", script, r1)
		}
		if r2 != r1 {
			t.Fatalf("render is not a fixpoint:\nsource: %q\nr1:     %q\nr2:     %q", script, r1, r2)
		}

		var outA, outB strings.Builder
		vmi := fuzzInterp(EvalVM, &outA)
		classic := fuzzInterp(EvalClassic, &outB)
		valA, errA := vmi.Eval(r1)
		valB, errB := classic.Eval(r1)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("error presence diverged on rendered form: vm=%v classic=%v r1=%q", errA, errB, r1)
		}
		if errA != nil && errA.Error() != errB.Error() {
			t.Fatalf("error text diverged on rendered form:\nvm:      %s\nclassic: %s\nr1=%q", errA, errB, r1)
		}
		if valA != valB {
			t.Fatalf("result diverged on rendered form: vm=%q classic=%q r1=%q", valA, valB, r1)
		}
		if outA.String() != outB.String() {
			t.Fatalf("output diverged on rendered form:\nvm:      %q\nclassic: %q\nr1=%q", outA.String(), outB.String(), r1)
		}
	})
}
