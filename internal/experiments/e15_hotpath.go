package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/tcl"
)

// HotPathCaches is experiment E15: the hot-path compilation caches. The
// paper's engine re-parsed script text and pattern text on every use; this
// experiment measures what compiling once buys on the three hot paths
// (script eval and expr eval — the classic re-parsing evaluator against
// the default vm — and glob match) plus the gap-buffer replacement for
// copy-shift match_max enforcement.
func HotPathCaches() (Result, error) {
	t := &table{header: []string{"hot path", "before (seed; Tcl: classic)", "after (compiled; Tcl: vm)", "speedup"}}
	m := map[string]float64{}

	nsPerOp := func(iters int, f func()) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}

	// Script eval: a loop-and-branch body evaluated repeatedly.
	script := `set total 0
foreach n {1 2 3 4 5 6 7 8} {
	if {$n % 2 == 0} { set total [expr {$total + $n * 3}] } else { set log "skip $n" }
}
set total`
	vmI := tcl.New()
	classicI := tcl.New()
	classicI.SetEvalMode(tcl.EvalClassic)
	for _, i := range []*tcl.Interp{vmI, classicI} {
		if res := i.EvalScript(script); res.Code != tcl.OK {
			return Result{}, fmt.Errorf("eval: %s", res.Value)
		}
	}
	const evalIters = 3000
	evalMiss := nsPerOp(evalIters, func() { classicI.EvalScript(script) })
	evalHit := nsPerOp(evalIters, func() { vmI.EvalScript(script) })
	t.add("Tcl eval (loop body)", fmt.Sprintf("%.0f ns", evalMiss), fmt.Sprintf("%.0f ns", evalHit),
		fmt.Sprintf("%.1fx", evalMiss/evalHit))
	m["eval_speedup"] = evalMiss / evalHit

	// Expr eval: the same expression re-evaluated, bytecode vs re-parse.
	expr := `($x * 2 + 100 / $y) > 50 && $x % 7 <= 3 || !($y == 3)`
	for _, i := range []*tcl.Interp{vmI, classicI} {
		i.SetVar("x", "21")
		i.SetVar("y", "3")
	}
	const exprIters = 20000
	exprMiss := nsPerOp(exprIters, func() { classicI.ExprString(expr) })
	exprHit := nsPerOp(exprIters, func() { vmI.ExprString(expr) })
	t.add("expr (mixed arith)", fmt.Sprintf("%.0f ns", exprMiss), fmt.Sprintf("%.0f ns", exprHit),
		fmt.Sprintf("%.1fx", exprMiss/exprHit))
	m["expr_speedup"] = exprMiss / exprHit

	// Glob match: class-after-star pattern over a buffer matching at the
	// tail, compiled program vs the naive re-lexing matcher.
	text := strings.Repeat("all quiet on the eastern interface, nothing to report\n", 38) +
		"error 407: tail marker\n"
	pat := `*[0-9][0-9][0-9]: tail marker*`
	compiled := pattern.CompileGlob(pat)
	bytesText := []byte(text)
	const globIters = 4000
	globNaive := nsPerOp(globIters, func() { pattern.MatchNaive(pat, text) })
	globCompiled := nsPerOp(globIters, func() { compiled.Match(bytesText) })
	t.add("glob match (2 KiB buffer)", fmt.Sprintf("%.0f ns", globNaive), fmt.Sprintf("%.0f ns", globCompiled),
		fmt.Sprintf("%.1fx", globNaive/globCompiled))
	m["glob_speedup"] = globNaive / globCompiled

	// match_max enforcement: the seed's copy-shift loop vs the gap buffer,
	// measured end-to-end by streaming a torrent through a session.
	const chunkLen, maxLen, chunkCount = 64, 2000, 60000
	chunk := []byte(strings.Repeat("x", chunkLen))
	copyShift := nsPerOp(1, func() {
		var buf []byte
		for i := 0; i < chunkCount; i++ {
			buf = append(buf, chunk...)
			if over := len(buf) - maxLen; over > 0 {
				buf = append(buf[:0:0], buf[over:]...)
			}
		}
	}) / chunkCount
	payload := strings.Repeat("x", chunkLen*chunkCount)
	var gap float64
	{
		s, err := core.SpawnProgram(nil, "torrent", func(stdin io.Reader, stdout io.Writer) error {
			io.WriteString(stdout, payload)
			io.WriteString(stdout, " TAIL-MARKER")
			io.Copy(io.Discard, stdin)
			return nil
		})
		if err != nil {
			return Result{}, err
		}
		start := time.Now()
		if _, err := s.ExpectTimeout(30*time.Second, core.Glob("*TAIL-MARKER*")); err != nil {
			s.Close()
			return Result{}, fmt.Errorf("torrent: %v", err)
		}
		gap = float64(time.Since(start).Nanoseconds()) / chunkCount
		s.Close()
	}
	t.add("match_max per 64B chunk", fmt.Sprintf("%.0f ns (copy-shift)", copyShift),
		fmt.Sprintf("%.0f ns (gap buffer, incl. IO+match)", gap),
		fmt.Sprintf("%.1fx", copyShift/gap))
	m["matchmax_speedup"] = copyShift / gap

	hits, misses, _ := vmI.EvalCacheStats()
	m["eval_cache_hit_rate"] = float64(hits) / float64(hits+misses)

	return Result{
		ID:    "E15",
		Title: "hot-path compilation caches",
		PaperClaim: `"40% of the time was spent in the pattern matcher ... Several of these numbers could be improved" (§7.4) — ` +
			`the seed engine re-parsed scripts, exprs and patterns on every use`,
		Table:   t.String(),
		Metrics: m,
		Verdict: "parse-once caches win on every hot path; steady-state match wakeups are allocation-free",
	}, nil
}
