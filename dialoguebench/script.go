package main

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/pattern"
)

// alpha is the alphabet both the Tcl procs and checksum use.
const alpha = "abcdefghijklmnopqrstuvwxyz"

// checksumMod keeps the checksum inside a 32-bit integer; the fold proc
// spells the same modulus.
const checksumMod = 1000003

// scriptProcs is the dialogue the script workload times. dialogue builds
// its line in Tcl (the next word of the seeded schedule, Caesar-shifted
// by its seeded shift), sends it to the echo talker, and folds the reply
// into a checksum in the matched arm. The error-marker, timeout and eof
// arms raise errors, so any op that resolves on them fails.
const scriptProcs = `
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
proc fold {sum text} {
	global alpha
	foreach c [split $text ""] {
		set sum [expr {($sum * 31 + [string first $c $alpha] + 2) % 1000003}]
	}
	return $sum
}
proc dialogue {} {
	global n sum words shifts expect_match
	set i [expr {$n % [llength $words]}]
	incr n
	set line [shift [lindex $words $i] [lindex $shifts $i]]
	send "$line\n"
	expect "*echo:$line*" {
		set sum [fold $sum [string trim $expect_match]]
	} "*error:*" {
		error "talker reported: $expect_match"
	} timeout {
		error "timeout waiting for echo:$line"
	} eof {
		error "eof waiting for echo:$line"
	}
	return $sum
}
`

// scriptLines is the length of the word/shift schedule; it stays below
// the pattern compile cache's 256 entries so warm-up fills that cache.
const scriptLines = 64

// scriptInputs is the seeded word/shift schedule.
type scriptInputs struct {
	words  []string
	shifts []int
}

func newScriptInputs(seed int64) *scriptInputs {
	rng := rand.New(rand.NewSource(seed*4 + 1))
	in := &scriptInputs{}
	// Word lengths cycle through 5..9 so every seed's schedule costs the
	// same; the seed picks the letters, the shifts and the order.
	for _, i := range rng.Perm(scriptLines) {
		b := make([]byte, 5+i%5)
		for j := range b {
			b[j] = alpha[rng.Intn(len(alpha))]
		}
		in.words = append(in.words, string(b))
		in.shifts = append(in.shifts, 1+rng.Intn(25))
	}
	return in
}

// caesar is the Go twin of the shift proc.
func caesar(word string, k int) string {
	b := []byte(word)
	for i, c := range b {
		b[i] = alpha[(strings.IndexByte(alpha, c)+k)%26]
	}
	return string(b)
}

// fold is the Go twin of the fold proc.
func fold(sum int64, text string) int64 {
	for i := 0; i < len(text); i++ {
		sum = (sum*31 + int64(strings.IndexByte(alpha, text[i])) + 2) % checksumMod
	}
	return sum
}

// dispatch is one completed Tcl command as the DispatchHook saw it.
type dispatch struct {
	name       string
	depth      int
	start, end int64
}

// scriptStack is one engine session of the script workload.
type scriptStack struct {
	eng     *core.Engine
	replies []string // "echo:<line>" for each schedule entry
	n       int      // ops run, mirroring the proc's counter
	want    int64    // the checksum computed in Go
	expects int64

	// Traced stacks only: the DispatchHook wrapper's count and the
	// current op's dispatches.
	tr         *tracer
	dispatches int64
	disp       []dispatch
}

func newScriptStack(in *scriptInputs, traced bool) (*scriptStack, error) {
	opt := core.EngineOptions{UserIn: strings.NewReader(""), UserOut: io.Discard}
	if traced {
		opt.Prof = metrics.NewProfiler()
	}
	s := &scriptStack{eng: core.NewEngine(opt)}
	for i, w := range in.words {
		s.replies = append(s.replies, "echo:"+caesar(w, in.shifts[i]))
	}
	s.eng.RegisterVirtual("echo", load.EchoServer())
	if traced {
		// Spans for the send and expect commands come from a DispatchHook
		// that first calls the engine's own hook, so the engine's eval
		// histogram and flight recorder see every dispatch as shipped.
		own := s.eng.Interp.DispatchHook
		s.disp = make([]dispatch, 0, 256)
		s.eng.Interp.DispatchHook = func(name string, depth int, d time.Duration) {
			own(name, depth, d)
			s.dispatches++
			if s.tr != nil {
				end := s.tr.now()
				s.disp = append(s.disp, dispatch{name, depth, end - int64(d), end})
			}
		}
	}
	shifts := make([]string, len(in.shifts))
	for i, k := range in.shifts {
		shifts[i] = strconv.Itoa(k)
	}
	setup := "log_user 0\n" +
		"set alpha " + alpha + "\n" +
		"set words {" + strings.Join(in.words, " ") + "}\n" +
		"set shifts {" + strings.Join(shifts, " ") + "}\n" +
		"set n 0\nset sum 0\n" + scriptProcs + "spawn echo\n"
	if _, err := s.eng.Run(setup); err != nil {
		s.eng.Shutdown()
		return nil, fmt.Errorf("script setup: %w", err)
	}
	return s, nil
}

func (s *scriptStack) op(_ int, tr *tracer) error {
	reply := s.replies[s.n%len(s.replies)]
	s.n++
	s.expects++
	want := fold(s.want, reply)
	s.tr = tr
	s.disp = s.disp[:0]
	tr.begin(layerTcl)
	got, err := s.eng.Run("dialogue")
	if tr != nil {
		s.spans(tr)
	}
	if err != nil {
		tr.end(false)
		s.resync()
		return fmt.Errorf("op %d (%s): %w", s.n-1, reply, err)
	}
	v, perr := strconv.ParseInt(got, 10, 64)
	tr.end(perr == nil && v == want)
	if perr != nil || v != want {
		s.resync()
		return fmt.Errorf("op %d (%s): checksum %q, want %d", s.n-1, reply, got, want)
	}
	s.want = want
	return nil
}

// resync reads the proc's counter and checksum back after a failed op,
// so one failure is counted once instead of spoiling every later check.
func (s *scriptStack) resync() {
	if v, ok := s.eng.Interp.GlobalGet("n"); ok {
		s.n, _ = strconv.Atoi(v)
	}
	if v, ok := s.eng.Interp.GlobalGet("sum"); ok {
		s.want, _ = strconv.ParseInt(v, 10, 64)
	}
}

// spans turns the op's dispatches into child spans of its root: the
// send and expect commands are core calls, and the Tcl commands an
// expect arm ran (same call depth, inside the expect's interval) are Tcl
// work nested in the expect span.
func (s *scriptStack) spans(tr *tracer) {
	for i, d := range s.disp {
		switch d.name {
		case "send":
			tr.add(0, kindSend, layerCore, d.name, d.start, d.end)
		case "expect":
			ex := tr.add(0, kindExpect, layerCore, d.name, d.start, d.end)
			for _, a := range s.disp[:i] {
				if a.depth == d.depth && a.start >= d.start && a.end <= d.end {
					tr.add(ex, kindTcl, layerTcl, a.name, a.start, a.end)
				}
			}
		}
	}
}

func (s *scriptStack) counters() layerCounters {
	var c layerCounters
	c[cDispatches] = s.dispatches
	c[cSteps] = s.eng.Interp.Steps()
	h, m, _ := s.eng.Interp.EvalCacheStats()
	c[cEvalHits], c[cEvalMisses] = int64(h), int64(m)
	c[cTraceEvents] = int64(s.eng.Recorder().Total())
	c[cExpects] = s.expects
	profCounters(&c, s.eng.Profiler())
	return c
}

func (s *scriptStack) levels() layerLevels { return layerLevels{} }

func (s *scriptStack) live() int { return 0 }

// close checks the proc's final checksum against the Go chain and shuts
// the engine down.
func (s *scriptStack) close() error {
	defer s.eng.Shutdown()
	got, ok := s.eng.Interp.GlobalGet("sum")
	if !ok || got != strconv.FormatInt(s.want, 10) {
		return fmt.Errorf("script: final checksum %q, Go computed %d", got, s.want)
	}
	return nil
}

// profCounters reads the Profiler's wakeup count and match time and the
// shared pattern compile cache.
func profCounters(c *layerCounters, prof *metrics.Profiler) {
	c[cWakeups] = prof.Hist(metrics.HistWakeupToMatch).Count()
	for _, smp := range prof.Snapshot() {
		if smp.Phase == metrics.PhaseMatch {
			c[cMatchNs] = int64(smp.Total)
		}
	}
	h, m, _ := pattern.CompileCacheStats()
	c[cPatHits], c[cPatMisses] = int64(h), int64(m)
}
