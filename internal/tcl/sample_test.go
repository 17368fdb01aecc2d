package tcl

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// sampleProcs and sampleLoop dispatch a few thousand commands through
// every kind of dispatch site: generic invokes, the specialized
// set/incr/expr and list sites, the if/while/foreach regions, and proc
// calls whose bodies nest dispatches inside their caller's.
const sampleProcs = `
set alpha abcdefghijklmnopqrstuvwxyz
proc shift {word k} {
	global alpha
	set out ""
	set len [string length $word]
	for {set j 0} {$j < $len} {incr j} {
		set p [string first [string index $word $j] $alpha]
		append out [string index $alpha [expr {($p + $k) % 26}]]
	}
	return $out
}
set words {}
foreach w {alpha bravo charlie delta echo} { lappend words [shift $w 3] }
`

const sampleLoop = `
set n 0
while {$n < 40} {
	if {$n % 3} { incr n } else { set n [expr {$n + 1}] }
	set last [shift [lindex $words [expr {$n % [llength $words]}]] $n]
}
`

// hooked is one report DispatchHook saw: name, depth, and the sampled
// ordinal (0 for a dispatch outside the sample).
type hooked struct {
	name   string
	depth  int
	sample int64
}

// hookLog runs script on a fresh interpreter in mode with a recording
// DispatchHook and the given gate, returning the reports in order and
// the interpreter.
func hookLog(t *testing.T, mode EvalMode, script string, watching func() bool, setup func(*Interp)) ([]hooked, *Interp) {
	t.Helper()
	i := New()
	i.SetEvalMode(mode)
	var log []hooked
	i.DispatchHook = func(name string, depth int, d time.Duration) {
		var sample int64
		if i.DispatchSampled() {
			sample = i.dispatchSample
		}
		log = append(log, hooked{name, depth, sample})
	}
	i.Watching = watching
	if setup != nil {
		setup(i)
	}
	if res := i.EvalScript(script); res.Code != OK {
		t.Fatalf("%s: %+v", mode, res)
	}
	return log, i
}

// seededOrdinals is the sample schedule up to n dispatches, computed
// here from the splitmix64 stream rather than through sampleGap: the
// first dispatch, then gaps of 1 + z%127 for each output z.
func seededOrdinals(n int64) []int64 {
	var out []int64
	state := uint64(sampleSeed)
	for ord := int64(1); ord <= n; {
		out = append(out, ord)
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		ord += 1 + int64(z%127)
	}
	return out
}

func unwatched() bool { return false }

func sampled(log []hooked) []hooked {
	var out []hooked
	for _, h := range log {
		if h.sample != 0 {
			out = append(out, h)
		}
	}
	return out
}

func hookString(log []hooked) string {
	var sb strings.Builder
	for _, h := range log {
		fmt.Fprintf(&sb, "%d:%s#%d ", h.depth, h.name, h.sample)
	}
	return sb.String()
}

// TestDispatchSampleOrdinals: with Watching returning false, the hook
// sees exactly the dispatches at the seeded ordinals, the first dispatch
// among them and every gap in 1..127, the same in both modes. Ungated,
// the hook sees every dispatch, Dispatches counts exactly those, and the
// ones it flags as sampled are the gated run's reports.
func TestDispatchSampleOrdinals(t *testing.T) {
	script := sampleProcs + sampleLoop
	var logs [2]string
	for m, mode := range []EvalMode{EvalClassic, EvalVM} {
		gated, i := hookLog(t, mode, script, unwatched, nil)
		n := i.Dispatches()
		var ords []int64
		for _, h := range gated {
			if h.sample == 0 {
				t.Fatalf("%s: gated hook saw unsampled dispatch %s", mode, h.name)
			}
			ords = append(ords, h.sample)
		}
		sort.Slice(ords, func(a, b int) bool { return ords[a] < ords[b] })
		want := seededOrdinals(n)
		if fmt.Sprint(ords) != fmt.Sprint(want) {
			t.Fatalf("%s: sampled ordinals of %d dispatches\n got: %v\nwant: %v", mode, n, ords, want)
		}
		if len(ords) < 16 || ords[0] != 1 {
			t.Fatalf("%s: %d samples of %d dispatches, first %v", mode, len(ords), n, ords[:1])
		}
		for k := 1; k < len(ords); k++ {
			if gap := ords[k] - ords[k-1]; gap < 1 || gap > 127 {
				t.Errorf("%s: gap %d between ordinals %d and %d", mode, gap, ords[k-1], ords[k])
			}
		}

		all, ui := hookLog(t, mode, script, nil, nil)
		if int64(len(all)) != ui.Dispatches() || ui.Dispatches() != n {
			t.Errorf("%s: ungated hook saw %d dispatches, Dispatches() = %d, gated run %d", mode, len(all), ui.Dispatches(), n)
		}
		if got, want := hookString(sampled(all)), hookString(gated); got != want {
			t.Errorf("%s: ungated sampled reports\n got: %s\nwant: %s", mode, got, want)
		}
		logs[m] = hookString(gated)
	}
	if logs[0] != logs[1] {
		t.Errorf("sampled reports diverge:\nclassic: %s\n     vm: %s", logs[0], logs[1])
	}
}

// TestDispatchWatchingMidScript: a gate that turns true mid-script
// reports every later dispatch, and only the sample before it. The flip
// happens in a top-level command, so every report before its own was
// stamped before the flip and every report after it was stamped after.
func TestDispatchWatchingMidScript(t *testing.T) {
	script := sampleProcs + sampleLoop + "watch\n" + sampleLoop
	for _, mode := range []EvalMode{EvalClassic, EvalVM} {
		on := false
		watch := func(i *Interp) {
			i.Register("watch", func(*Interp, []string) Result {
				on = true
				return Ok("")
			})
		}
		all, _ := hookLog(t, mode, script, nil, watch)
		k := -1
		for n, h := range all {
			if h.name == "watch" {
				k = n
			}
		}
		if k < 0 || k == len(all)-1 {
			t.Fatalf("%s: watch at %d of %d reports", mode, k, len(all))
		}
		want := append(sampled(all[:k+1]), all[k+1:]...)
		on = false
		got, _ := hookLog(t, mode, script, func() bool { return on }, watch)
		if hookString(got) != hookString(want) {
			t.Errorf("%s: reports with the gate flipped mid-script\n got: %s\nwant: %s", mode, hookString(got), hookString(want))
		}
		if len(got) <= len(sampled(all)) {
			t.Errorf("%s: %d reports, no more than the %d sampled", mode, len(got), len(sampled(all)))
		}
	}
}

// TestDispatchTraceReportsAll: with Trace set, a closed gate still
// reports every dispatch, as the ungated hook does.
func TestDispatchTraceReportsAll(t *testing.T) {
	script := sampleProcs + sampleLoop
	for _, mode := range []EvalMode{EvalClassic, EvalVM} {
		all, _ := hookLog(t, mode, script, nil, nil)
		traced, i := hookLog(t, mode, script, unwatched, func(i *Interp) {
			i.Trace = func(int, []string) {}
		})
		if hookString(traced) != hookString(all) {
			t.Errorf("%s: traced reports\n got: %s\nwant: %s", mode, hookString(traced), hookString(all))
		}
		if int64(len(traced)) != i.Dispatches() {
			t.Errorf("%s: %d reports of %d dispatches", mode, len(traced), i.Dispatches())
		}
	}
}
