package tcl

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// quietStepLimit bounds every garbage-fed interpreter: a generated script
// may loop forever (`while 1 ...`), and the properties below are about
// panics, not termination.
const quietStepLimit = 100_000

// quietInterp builds an interpreter that cannot write to the test output
// or execute external programs, and that gives up after quietStepLimit
// steps — for feeding it garbage.
func quietInterp() *Interp {
	i := New()
	i.StepLimit = quietStepLimit
	i.Stdout = io.Discard
	i.Stderr = io.Discard
	i.Unregister("exec")
	i.Unregister("source")
	i.Unregister("exit")
	i.Unregister("cd")
	i.Unregister("gets")
	i.Unregister("system")
	return i
}

// Property: evaluating arbitrary byte soup never panics; it either
// succeeds or returns an error.
func TestEvalArbitraryBytesNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		i := quietInterp()
		i.MaxDepth = 50
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on input %q: %v", data, r)
				t.Fail()
			}
		}()
		i.Eval(string(data))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

// tokenScript builds the script TestEvalRandomTokenScriptsNeverPanic
// evaluates for one generator seed.
func tokenScript(seed int64) string {
	tokens := []string{
		"set", "a", "$a", "${a}", "[", "]", "{", "}", `"`, ";", "\n",
		"expr", "1", "+", "if", "while", "proc", "foreach", "break",
		"\\", "\\n", "$", "#", " ", "list", "lindex", "string", "match",
		"uplevel", "upvar", "catch", "error", "return", "incr",
	}
	r := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	n := r.Intn(25)
	for k := 0; k < n; k++ {
		sb.WriteString(tokens[r.Intn(len(tokens))])
		if r.Intn(3) == 0 {
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}

// Property: scripts built from Tcl-ish tokens never panic either — this
// drives deeper into the evaluator than raw bytes do.
func TestEvalRandomTokenScriptsNeverPanic(t *testing.T) {
	f := func(seed int64) bool {
		script := tokenScript(seed)
		i := quietInterp()
		i.MaxDepth = 50
		defer func() {
			if rec := recover(); rec != nil {
				t.Logf("panic on script %q: %v", script, rec)
				t.Fail()
			}
		}()
		i.Eval(script)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

// TestEvalRandomTokenScriptLoopEndsAtStepLimit pins the draw that once
// hung the property above: generator seed 0x239f5c47a56612f6 builds an
// endless loop, which quietInterp's step limit must end with its error.
func TestEvalRandomTokenScriptLoopEndsAtStepLimit(t *testing.T) {
	script := tokenScript(0x239f5c47a56612f6)
	if !strings.HasPrefix(script, "while 1 ") {
		t.Fatalf("seed no longer builds the looping script: %q", script)
	}
	i := quietInterp()
	i.MaxDepth = 50
	_, err := i.Eval(script)
	if err == nil || !strings.Contains(err.Error(), "step limit exceeded") {
		t.Fatalf("%q: err = %v, want the step-limit error", script, err)
	}
}

// Property: any string survives a round trip through a variable — set
// then read back yields the identical bytes (values are never reparsed).
func TestVariableRoundTripQuick(t *testing.T) {
	i := New()
	f := func(value string) bool {
		i.SetVar("v", value)
		got, ok := i.GetVar("v")
		return ok && got == value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: QuoteElement output always parses back as exactly one element.
func TestQuoteElementSingleQuick(t *testing.T) {
	f := func(s string) bool {
		q := QuoteElement(s)
		items, err := ParseList(q)
		return err == nil && len(items) == 1 && items[0] == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

// Property: backslashSubst consumes at least one byte and never overruns.
func TestBackslashSubstBoundsQuick(t *testing.T) {
	f := func(s string) bool {
		in := "\\" + s
		_, n := backslashSubst(in)
		return n >= 1 && n <= len(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

// Property: expr on random small integer expressions never panics and,
// when it succeeds, is deterministic.
func TestExprDeterministicQuick(t *testing.T) {
	ops := []string{"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "<", ">", "==", "&&", "||"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		sb.WriteString(itoa(int64(r.Intn(100))))
		for k := 0; k < r.Intn(6); k++ {
			sb.WriteString(" " + ops[r.Intn(len(ops))] + " ")
			sb.WriteString(itoa(int64(r.Intn(100))))
		}
		i := New()
		a, resA := i.ExprString(sb.String())
		b, resB := i.ExprString(sb.String())
		if resA.Code != resB.Code {
			return false
		}
		return resA.Code != OK || a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Deeply nested braces and brackets stay linear-ish and correct.
func TestDeepBraceNesting(t *testing.T) {
	depth := 200
	script := "set x " + strings.Repeat("{", depth) + "v" + strings.Repeat("}", depth)
	i := New()
	got := evalOK(t, i, script)
	want := strings.Repeat("{", depth-1) + "v" + strings.Repeat("}", depth-1)
	if got != want {
		t.Errorf("deep braces: got %d bytes, want %d", len(got), len(want))
	}
}

func TestHugeWordNoQuadraticBlowup(t *testing.T) {
	// A 1 MB braced word must evaluate promptly (sanity, not a benchmark).
	big := strings.Repeat("a", 1<<20)
	i := New()
	got := evalOK(t, i, "set x {"+big+"}")
	if len(got) != len(big) {
		t.Errorf("len = %d", len(got))
	}
}
