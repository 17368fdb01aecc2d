// Package clock reads the monotonic clock alone. time.Now reads both the
// wall and the monotonic clock; Now here reads only the monotonic one, so
// code that stamps every Tcl dispatch (the interpreter's DispatchHook
// timing and the flight recorder's event stamps) pays one clock read per
// stamp and can share a stamp between the two.
package clock

import "time"

// epoch carries a monotonic reading, so time.Since(epoch) reads only the
// monotonic clock.
var epoch = time.Now()

// Now returns monotonic nanoseconds since the process started. Readings
// are comparable across goroutines and packages; differences are
// durations.
func Now() int64 { return int64(time.Since(epoch)) }
