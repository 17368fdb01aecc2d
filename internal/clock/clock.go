// Package clock reads the monotonic clock alone. time.Now reads both the
// wall and the monotonic clock; Now here reads only the monotonic one, so
// code that stamps Tcl dispatches pays one clock read per stamp and can
// share a stamp between the interpreter's DispatchHook timing and the
// flight recorder's event. A reported dispatch costs two reads (about
// 56 ns each on a 2-vCPU KVM guest), so the interpreter reads the clock
// only for the dispatches it reports: a seeded sample of about 1 in 64
// behind its Watching gate, or every dispatch while someone watches.
package clock

import "time"

// epoch carries a monotonic reading, so time.Since(epoch) reads only the
// monotonic clock.
var epoch = time.Now()

// Now returns monotonic nanoseconds since the process started. Readings
// are comparable across goroutines and packages; differences are
// durations.
func Now() int64 { return int64(time.Since(epoch)) }
