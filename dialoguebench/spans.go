package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// layer is the repository module a span's self time is charged to.
type layer uint8

const (
	layerBench layer = iota // the benchmark's own loop and checks
	layerTcl                // internal/tcl, including the vm
	layerCore               // internal/core: sessions, expect, Scheduler
	numLayers
)

var layerNames = [numLayers]string{"bench", "tcl", "core"}

// spanKind names the call a span wraps.
type spanKind uint8

const (
	kindOp     spanKind = iota // the root span of one op
	kindSpawn                  // core.SpawnMux
	kindSend                   // Session.Send, or the send command
	kindExpect                 // Session.ExpectTimeout, or the expect command
	kindClose                  // Session.Close
	kindTcl                    // a Tcl command run by an expect arm
	numKinds
)

var kindNames = [numKinds]string{"op", "spawn", "send", "expect", "close", "tcl"}

// span is one timed interval of one op. Times are nanoseconds since the
// tracer's base; parent indexes the op's span list (-1 for the root).
type span struct {
	op         uint32
	parent     int16
	kind       spanKind
	layer      layer
	name       string
	start, end int64
	self       int64
}

// keepSpans bounds the spans a tracer retains for the span log; self
// times are aggregated over every op whether or not its spans are kept.
const keepSpans = 1 << 15

// tracer records the spans of one worker's ops. A nil *tracer is the
// untraced path: every method returns at once without reading the clock.
type tracer struct {
	base time.Time
	opID uint32
	cur  []span // the current op; cur[0] is its root
	keep []span

	ops    int64
	opNs   int64
	selfNs [numLayers]int64
	kindNs [numKinds]int64
}

func newTracer(base time.Time, keepCap int) *tracer {
	return &tracer{base: base, cur: make([]span, 0, 256), keep: make([]span, 0, keepCap)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// begin opens the root span of an op whose self time belongs to l.
func (t *tracer) begin(l layer) {
	if t == nil {
		return
	}
	t.cur = append(t.cur[:0], span{op: t.opID, parent: -1, kind: kindOp, layer: l, name: kindNames[kindOp], start: t.now()})
}

// call closes a core call span that started at start, as a child of the
// root.
func (t *tracer) call(k spanKind, start int64) {
	if t == nil {
		return
	}
	t.add(0, k, layerCore, kindNames[k], start, t.now())
}

// add appends a span under parent and returns its index.
func (t *tracer) add(parent int, k spanKind, l layer, name string, start, end int64) int {
	t.cur = append(t.cur, span{op: t.opID, parent: int16(parent), kind: k, layer: l, name: name, start: start, end: end})
	return len(t.cur) - 1
}

// end closes the root span. Only ops that passed their checks are
// charged to the layers, so a failed op cannot skew the per-op split.
func (t *tracer) end(ok bool) {
	if t == nil {
		return
	}
	t.cur[0].end = t.now()
	for i := range t.cur {
		t.cur[i].self = t.cur[i].end - t.cur[i].start
	}
	for i := 1; i < len(t.cur); i++ {
		sp := &t.cur[i]
		t.cur[sp.parent].self -= sp.end - sp.start
	}
	if ok {
		t.ops++
		t.opNs += t.cur[0].end - t.cur[0].start
		for i := range t.cur {
			sp := &t.cur[i]
			t.selfNs[sp.layer] += sp.self
			t.kindNs[sp.kind] += sp.self
		}
	}
	if len(t.keep)+len(t.cur) <= cap(t.keep) {
		t.keep = append(t.keep, t.cur...)
	}
	t.opID++
}

// merge folds o's aggregates into t; the retained spans stay per worker.
func (t *tracer) merge(o *tracer) {
	t.ops += o.ops
	t.opNs += o.opNs
	for i := range t.selfNs {
		t.selfNs[i] += o.selfNs[i]
	}
	for i := range t.kindNs {
		t.kindNs[i] += o.kindNs[i]
	}
}

// writeSpans writes every retained span as one tab-separated line.
func writeSpans(path string, trs []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "worker\top\tspan\tparent\tlayer\tname\tstart_ns\tend_ns\tself_ns")
	for wk, t := range trs {
		first := 0
		for i, sp := range t.keep {
			if sp.parent < 0 {
				first = i
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\n",
				wk, sp.op, i-first, sp.parent, layerNames[sp.layer], sp.name, sp.start, sp.end, sp.self)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
