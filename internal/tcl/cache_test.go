package tcl

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The vm's compile caches must be invisible: every script and expression
// behaves identically under the vm (the default) and the classic
// re-parsing referee. These tests pin the invalidation story (proc
// redefinition, rename) and the error-timing subtleties (fail-soft parse
// errors, bracket return), then cross-check the two evaluators over
// randomized scripts.

func newClassic() *Interp {
	i := New()
	i.SetEvalMode(EvalClassic)
	return i
}

// bothModes returns a fresh interpreter in each evaluation mode, vm first.
func bothModes() map[string]*Interp {
	return map[string]*Interp{"vm": New(), "classic": newClassic()}
}

func TestProcRedefinitionNeverStale(t *testing.T) {
	i := New()
	if _, err := i.Eval("proc greet {} {return hello}"); err != nil {
		t.Fatal(err)
	}
	// Evaluate twice so the body is compiled and cached.
	for k := 0; k < 2; k++ {
		if out, err := i.Eval("greet"); err != nil || out != "hello" {
			t.Fatalf("call %d: %q, %v", k, out, err)
		}
	}
	if _, err := i.Eval("proc greet {} {return goodbye}"); err != nil {
		t.Fatal(err)
	}
	if out, err := i.Eval("greet"); err != nil || out != "goodbye" {
		t.Fatalf("after redefinition: %q, %v (stale body served?)", out, err)
	}
}

func TestRenameNeverServesStaleDispatch(t *testing.T) {
	i := New()
	script := "proc a {} {return ay}\nproc b {} {return bee}"
	if _, err := i.Eval(script); err != nil {
		t.Fatal(err)
	}
	// Warm the cache on the call sites themselves.
	if out, _ := i.Eval("a"); out != "ay" {
		t.Fatalf("a = %q", out)
	}
	if _, err := i.Eval("rename b c"); err != nil {
		t.Fatal(err)
	}
	if _, err := i.Eval("rename a b"); err != nil {
		t.Fatal(err)
	}
	// The same cached call-site text must now dispatch to the moved procs.
	if out, err := i.Eval("b"); err != nil || out != "ay" {
		t.Fatalf("b after rename: %q, %v", out, err)
	}
	if out, err := i.Eval("c"); err != nil || out != "bee" {
		t.Fatalf("c after rename: %q, %v", out, err)
	}
	if _, err := i.Eval("a"); err == nil ||
		!strings.Contains(err.Error(), "invalid command name") {
		t.Fatalf("a after rename: want invalid command name, got %v", err)
	}
}

// TestLoopBodyHitsCache checks that a loop body evaluated on every pass
// compiles once. The vm inlines `while` bodies, so the loop is a `for`,
// which it does not specialize: cmdFor runs its step and body scripts
// through EvalScript on every pass, and every pass after the first must
// hit the cache.
func TestLoopBodyHitsCache(t *testing.T) {
	i := New()
	if _, err := i.Eval("for {set n 0} {$n < 50} {incr n} {set m [expr {$n + 1}]}"); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := i.EvalCacheStats()
	if hits < 40 || misses > 4 {
		t.Errorf("loop body should hit the cache, got hits=%d misses=%d", hits, misses)
	}
}

// TestEvalCacheStatsCountsActiveMode checks that EvalCacheStats counts the
// lookups of the vm's script cache. The vm runs the foreach body inline
// and answers 49 of the 50 evaluations of double's body from its front
// entry, compiling only on its one miss; the classic referee consults no
// cache.
func TestEvalCacheStatsCountsActiveMode(t *testing.T) {
	items := make([]string, 50)
	for k := range items {
		items[k] = strconv.Itoa(k)
	}
	script := "proc double {x} {expr {$x * 2}}; set s 0; foreach v {" + strings.Join(items, " ") +
		"} {incr s [double $v]}; set s"
	for mode, i := range bothModes() {
		if out, err := i.Eval(script); err != nil || out != "2450" {
			t.Fatalf("%s: %q, %v", mode, out, err)
		}
		hits, misses, evicted := i.EvalCacheStats()
		if mode == "classic" {
			if hits+misses+evicted != 0 {
				t.Errorf("classic: stats %d/%d/%d, want none", hits, misses, evicted)
			}
			continue
		}
		if hits < 49 || misses == 0 || misses > 4 {
			t.Errorf("%s: hits=%d misses=%d, want >= 49 hits over a handful of compiles", mode, hits, misses)
		}
	}
}

// TestCacheDisabledRestoresLegacyPath checks that the classic referee
// evaluates without touching the vm's caches.
func TestCacheDisabledRestoresLegacyPath(t *testing.T) {
	i := newClassic()
	if out, err := i.Eval("set x 5; expr {$x * 2}"); err != nil || out != "10" {
		t.Fatalf("classic eval: %q, %v", out, err)
	}
	if hits, misses, evicted := i.EvalCacheStats(); hits+misses+evicted != 0 {
		t.Errorf("classic eval reported cache stats %d/%d/%d", hits, misses, evicted)
	}
	if n := i.vmCache.Len() + i.vmExprCache.Len(); n != 0 {
		t.Errorf("classic eval cached %d programs", n)
	}
}

// TestCacheBoundIsRespected evaluates more distinct scripts than the
// cache holds: the vm's script cache stays at its bound and evicts.
func TestCacheBoundIsRespected(t *testing.T) {
	i := New()
	for k := 0; k < DefaultEvalCacheSize+64; k++ {
		if _, err := i.Eval(fmt.Sprintf("set v%d %d", k, k)); err != nil {
			t.Fatal(err)
		}
	}
	if n := i.vmCache.Len(); n > DefaultEvalCacheSize {
		t.Errorf("cache holds %d entries, bound is %d", n, DefaultEvalCacheSize)
	}
	if _, _, evicted := i.EvalCacheStats(); evicted == 0 {
		t.Error("expected evictions past the bound")
	}
}

// failSoft pins the classic parse-as-you-evaluate timing: commands before a
// parse error run; the error surfaces only when evaluation reaches it.
func TestFailSoftParseErrorTiming(t *testing.T) {
	cases := []struct {
		script  string
		wantErr string
		check   func(i *Interp) error
	}{
		{
			script:  "set y 1\nset bad {unclosed",
			wantErr: "missing close-brace",
			check: func(i *Interp) error {
				if v, _ := i.GetVar("y"); v != "1" {
					return fmt.Errorf("y = %q, prefix did not run", v)
				}
				return nil
			},
		},
		{
			script:  "set x [set y 2; set bad {unclosed",
			wantErr: "missing close-brace",
			check: func(i *Interp) error {
				if v, _ := i.GetVar("y"); v != "2" {
					return fmt.Errorf("y = %q, nested prefix did not run", v)
				}
				return nil
			},
		},
		{
			script:  "set x [set y 3",
			wantErr: "missing close-bracket",
			check: func(i *Interp) error {
				if v, _ := i.GetVar("y"); v != "3" {
					return fmt.Errorf("y = %q, unclosed bracket prefix did not run", v)
				}
				return nil
			},
		},
	}
	for _, mode := range []EvalMode{EvalVM, EvalClassic} {
		for _, tc := range cases {
			i := New()
			i.SetEvalMode(mode)
			_, err := i.Eval(tc.script)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s %q: err = %v, want %q", mode, tc.script, err, tc.wantErr)
				continue
			}
			if cerr := tc.check(i); cerr != nil {
				t.Errorf("%s %q: %v", mode, tc.script, cerr)
			}
		}
	}
}

func TestBracketReturnPosition(t *testing.T) {
	cases := []struct {
		script  string
		want    string
		wantErr string
	}{
		{script: "set x [return 5]", want: "5"},
		{script: "set x [return 5;]", want: "5"},
		{script: "set x [return 5\n]", want: "5"},
		{script: "set x [return 5; more]", wantErr: "missing close-bracket"},
		{script: "set x [return 5; ]", wantErr: "missing close-bracket"},
	}
	for _, mode := range []EvalMode{EvalVM, EvalClassic} {
		for _, tc := range cases {
			i := New()
			i.SetEvalMode(mode)
			out, err := i.Eval(tc.script)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("%s %q: err = %v, want %q", mode, tc.script, err, tc.wantErr)
				}
				continue
			}
			if err != nil || out != tc.want {
				t.Errorf("%s %q: %q, %v", mode, tc.script, out, err)
			}
		}
	}
}

// snapshot captures the observable outcome of a script: the completion
// code/value plus every global scalar, so side-effect divergence between
// the two evaluators is caught, not just result divergence.
func snapshot(i *Interp, res Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "code=%d value=%q\n", res.Code, res.Value)
	for name, v := range i.frames[0].vars {
		tv := v.target()
		if tv.isArr {
			for k, val := range tv.arr {
				fmt.Fprintf(&sb, "arr %s(%s)=%q\n", name, k, val)
			}
		} else {
			fmt.Fprintf(&sb, "var %s=%q\n", name, tv.value)
		}
	}
	// Map iteration order is random; normalize.
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	head, tail := lines[0], lines[1:]
	sortStrings(tail)
	return head + "\n" + strings.Join(tail, "\n")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// randomScript builds scripts from constructs that exercise every segment
// kind and error path: literals, variables, arrays, brackets, quoting,
// procs, loops, expr, and deliberately broken syntax.
func randomScript(rng *rand.Rand) string {
	pieces := []func() string{
		func() string { return fmt.Sprintf("set a%d %d", rng.Intn(4), rng.Intn(100)) },
		func() string { return fmt.Sprintf("set arr(k%d) v%d", rng.Intn(3), rng.Intn(10)) },
		func() string { return fmt.Sprintf("set b \"val $a%d end\"", rng.Intn(4)) },
		func() string { return fmt.Sprintf("set c [expr {$a%d + %d}]", rng.Intn(4), rng.Intn(9)) },
		func() string { return fmt.Sprintf("set d $arr(k%d)", rng.Intn(3)) },
		func() string { return fmt.Sprintf("append b _%d", rng.Intn(10)) },
		func() string {
			return fmt.Sprintf("proc p%d {x} {return [expr {$x * %d}]}", rng.Intn(3), rng.Intn(5)+1)
		},
		func() string { return fmt.Sprintf("set e [p%d %d]", rng.Intn(3), rng.Intn(20)) },
		func() string {
			return fmt.Sprintf("set i 0\nwhile {$i < %d} {set i [expr {$i + 1}]}", rng.Intn(6)+1)
		},
		func() string {
			return fmt.Sprintf("if {$a%d > 50} {set f big} else {set f small}", rng.Intn(4))
		},
		func() string { return fmt.Sprintf("foreach w {x y z} {set g$w %d}", rng.Intn(9)) },
		func() string { return "set h [string length $b]" },
		func() string { return "# a comment line" },
		func() string { return fmt.Sprintf("set j {braced %d literal}", rng.Intn(9)) },
		func() string { return fmt.Sprintf("set k \\%d\\t", rng.Intn(8)) },
		// Error producers — both evaluators must fail identically.
		func() string { return "set bad {unclosed" },
		func() string { return "set bad [nosuchcmd 1 2" },
		func() string { return "set bad $nosuchvar" },
		func() string { return "nosuchcmd" },
		func() string { return "set bad \"unclosed" },
		func() string { return "set x [return 7; extra]" },
	}
	n := rng.Intn(6) + 1
	var sb strings.Builder
	for k := 0; k < n; k++ {
		if k > 0 {
			if rng.Intn(2) == 0 {
				sb.WriteString("\n")
			} else {
				sb.WriteString("; ")
			}
		}
		sb.WriteString(pieces[rng.Intn(len(pieces))]())
	}
	return sb.String()
}

// TestCachedUncachedEquivalenceFuzz cross-checks the vm against the
// classic parse-as-you-evaluate referee over randomized scripts: identical
// completion codes, values, ErrorInfo, and global variable state. Scripts
// are seeded so every interp starts with the referenced variables defined,
// then each random script runs on both modes.
func TestCachedUncachedEquivalenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const seedScript = "set a0 1; set a1 2; set a2 3; set a3 77; set b seed; " +
		"set arr(k0) z0; set arr(k1) z1; set arr(k2) z2; " +
		"proc p0 {x} {return $x}; proc p1 {x} {return [expr {$x+1}]}; proc p2 {x} {return [expr {$x*2}]}"
	for iter := 0; iter < 400; iter++ {
		script := randomScript(rng)
		vmi := New()
		classic := newClassic()
		for _, i := range []*Interp{vmi, classic} {
			if _, err := i.Eval(seedScript); err != nil {
				t.Fatalf("seed: %v", err)
			}
		}
		// Evaluate twice so the second pass replays the memoized program
		// and its primed inline caches — the path that must not diverge.
		resV := vmi.EvalScript(script)
		resV2 := vmi.EvalScript(script)
		resC := classic.EvalScript(script)
		resC2 := classic.EvalScript(script)
		if resV2 != resC2 {
			t.Fatalf("iter %d: second-pass results diverge\nscript:\n%s\nvm:      %+v\nclassic: %+v",
				iter, script, resV2, resC2)
		}
		if resV != resC {
			t.Fatalf("iter %d: first-pass results diverge\nscript:\n%s\nvm:      %+v\nclassic: %+v",
				iter, script, resV, resC)
		}
		if vmi.ErrorInfo != classic.ErrorInfo {
			t.Fatalf("iter %d: ErrorInfo diverges\nscript:\n%s\nvm:      %q\nclassic: %q",
				iter, script, vmi.ErrorInfo, classic.ErrorInfo)
		}
		sv, sc := snapshot(vmi, resV2), snapshot(classic, resC2)
		if sv != sc {
			t.Fatalf("iter %d: state diverges\nscript:\n%s\nvm:\n%s\nclassic:\n%s",
				iter, script, sv, sc)
		}
	}
}

// randomExpr builds expressions covering every operator level, laziness,
// and the error paths that must match between AST and re-parse evaluation.
func randomExpr(rng *rand.Rand) string {
	atoms := []string{
		"1", "2", "0", "-3", "4.5", "0x1f", "$a", "$b", "$f", "$arr(k)",
		"\"str $a\"", "{word}", "[expr {$a+1}]", "abs(-4)", "int(7.9)",
		"round(2.5)", "double(3)", "true", "no", "$nosuchvar", "1/0",
		"nosuchfunc(1)", "9 %", "(", "~2.5",
	}
	ops := []string{"+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=",
		"&&", "||", "<<", ">>", "&", "|", "^"}
	var sb strings.Builder
	n := rng.Intn(4) + 1
	for k := 0; k < n; k++ {
		if k > 0 {
			sb.WriteString(" " + ops[rng.Intn(len(ops))] + " ")
		}
		if rng.Intn(8) == 0 {
			sb.WriteString("!")
		}
		sb.WriteString(atoms[rng.Intn(len(atoms))])
	}
	if rng.Intn(5) == 0 {
		return "(" + sb.String() + ") ? $a : $b"
	}
	return sb.String()
}

// TestExprASTEquivalenceFuzz cross-checks the vm's compiled expressions
// (cold, then from its cache) against the classic re-parsing evaluator.
func TestExprASTEquivalenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const seed = "set a 5; set b 2; set f 1.5; set arr(k) 9"
	vmi := New()
	classic := newClassic()
	for _, i := range []*Interp{vmi, classic} {
		if _, err := i.Eval(seed); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	for iter := 0; iter < 600; iter++ {
		expr := randomExpr(rng)
		// Two passes on the vm side: miss then hit.
		v1, r1 := vmi.ExprString(expr)
		v2, r2 := vmi.ExprString(expr)
		c, rc := classic.ExprString(expr)
		if v1 != v2 || r1 != r2 {
			t.Fatalf("iter %d: cache hit diverges from miss for %q: (%q,%+v) vs (%q,%+v)",
				iter, expr, v1, r1, v2, r2)
		}
		if v1 != c || r1 != rc {
			t.Fatalf("iter %d: vm diverges from classic for %q:\nvm:      (%q, %+v)\nclassic: (%q, %+v)",
				iter, expr, v1, r1, c, rc)
		}
	}
}

func TestExprLazinessCached(t *testing.T) {
	// The canonical laziness cases must hold on the vm too, including on
	// a cache hit.
	i := New()
	for pass := 0; pass < 2; pass++ {
		if out, err := i.Eval("expr {1 || $nosuchvar}"); err != nil || out != "1" {
			t.Fatalf("pass %d: || laziness: %q, %v", pass, out, err)
		}
		if out, err := i.Eval("expr {0 && [nosuchcmd]}"); err != nil || out != "0" {
			t.Fatalf("pass %d: && laziness: %q, %v", pass, out, err)
		}
		if out, err := i.Eval("expr {1 ? 10 : $nosuchvar}"); err != nil || out != "10" {
			t.Fatalf("pass %d: ?: laziness: %q, %v", pass, out, err)
		}
		if out, err := i.Eval("expr {0 || nosuchfunc(1) < 2}"); err == nil {
			t.Fatalf("pass %d: taken unknown func should error, got %q", pass, out)
		}
		if out, err := i.Eval("expr {1 || nosuchfunc(1) < 2}"); err != nil || out != "1" {
			t.Fatalf("pass %d: untaken unknown func: %q, %v", pass, out, err)
		}
	}
}

// TestQuotedSideEffectsRunUntaken pins an obscure corner both evaluators
// share: quoted strings substitute even on untaken lazy sides (for strings,
// parsing is substitution), while brackets and variables are skipped.
func TestQuotedSideEffectsRunUntaken(t *testing.T) {
	for mode, i := range bothModes() {
		if _, err := i.Eval(`expr {1 || "[set touched 1]"}`); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if v, ok := i.GetVar("touched"); !ok || v != "1" {
			t.Errorf("%s: quoted substitution on untaken side did not run (touched=%q ok=%v)",
				mode, v, ok)
		}
	}
}
