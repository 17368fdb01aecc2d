package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// procCounters are one process's cumulative costs, read from outside its
// code: CPU time, read/write-family syscalls, context switches, and the
// resident-set high-water mark.
type procCounters struct {
	cpuNs, syscalls, ctxSwitches int64
	hwmKB                        int64 // a level, not a counter
}

func (a procCounters) minus(b procCounters) procCounters {
	return procCounters{cpuNs: a.cpuNs - b.cpuNs, syscalls: a.syscalls - b.syscalls,
		ctxSwitches: a.ctxSwitches - b.ctxSwitches, hwmKB: a.hwmKB}
}

func (a *procCounters) add(d procCounters) {
	a.cpuNs += d.cpuNs
	a.syscalls += d.syscalls
	a.ctxSwitches += d.ctxSwitches
	a.hwmKB = max(a.hwmKB, d.hwmKB)
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTick = 100

// selfCounters samples the benchmark process: getrusage for CPU and
// context switches, /proc/self/io for syscalls, /proc/self/status for
// VmHWM.
func selfCounters() (procCounters, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procCounters{}, fmt.Errorf("getrusage: %w", err)
	}
	pc := procCounters{
		cpuNs:       ru.Utime.Nano() + ru.Stime.Nano(),
		ctxSwitches: int64(ru.Nvcsw + ru.Nivcsw),
	}
	var err error
	if pc.syscalls, err = ioSyscalls("/proc/self/io"); err != nil {
		return pc, err
	}
	st, err := statusFields("/proc/self/status")
	pc.hwmKB = st["VmHWM"]
	return pc, err
}

// pidCounters samples another process through /proc/<pid>/{stat,io,status}
// and its threads' status files.
func pidCounters(pid int) (procCounters, error) {
	dir := "/proc/" + strconv.Itoa(pid)
	var pc procCounters
	b, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return pc, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	rp := bytes.LastIndexByte(b, ')')
	if rp < 0 {
		return pc, fmt.Errorf("%s/stat: no command name", dir)
	}
	f := strings.Fields(string(b[rp+1:]))
	if len(f) < 13 {
		return pc, fmt.Errorf("%s/stat: %d fields", dir, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return pc, fmt.Errorf("%s/stat: bad utime/stime %q %q", dir, f[11], f[12])
	}
	pc.cpuNs = (ut + stime) * (1e9 / clockTick)
	if pc.syscalls, err = ioSyscalls(dir + "/io"); err != nil {
		return pc, err
	}
	st, err := statusFields(dir + "/status")
	if err != nil {
		return pc, err
	}
	pc.hwmKB = st["VmHWM"]
	// status counts context switches per thread: sum the live threads.
	tasks, err := os.ReadDir(dir + "/task")
	if err != nil {
		return pc, err
	}
	for _, t := range tasks {
		ts, err := statusFields(dir + "/task/" + t.Name() + "/status")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		pc.ctxSwitches += ts["voluntary_ctxt_switches"] + ts["nonvoluntary_ctxt_switches"]
	}
	return pc, nil
}

func ioSyscalls(path string) (int64, error) {
	st, err := statusFields(path)
	return st["syscr"] + st["syscw"], err
}

// statusFields parses "key: number [unit]" lines.
func statusFields(path string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		fs := strings.Fields(v)
		if len(fs) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(fs[0], 10, 64); err == nil {
			out[k] = n
		}
	}
	return out, sc.Err()
}

// hostCPU is the machine's CPU time from the first line of /proc/stat,
// in clock ticks: all of it, and the part the host stole from it while
// the machine's CPUs had work.
type hostCPU struct{ steal, total int64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var h hostCPU
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("/proc/stat: %q: %w", v, err)
		}
		if i < 8 { // guest time is already counted in user time
			h.total += n
		}
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}

// memCounters are the Go runtime's allocation counters for this process.
type memCounters struct{ mallocs, allocBytes, gcs int64 }

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{int64(ms.Mallocs), int64(ms.TotalAlloc), int64(ms.NumGC)}
}

func (a memCounters) minus(b memCounters) memCounters {
	return memCounters{a.mallocs - b.mallocs, a.allocBytes - b.allocBytes, a.gcs - b.gcs}
}

func (a *memCounters) add(d memCounters) {
	a.mallocs += d.mallocs
	a.allocBytes += d.allocBytes
	a.gcs += d.gcs
}

// Layer counters a stack reports from the program's own accounting.
const (
	cDispatches   = iota // Tcl command dispatches seen by the DispatchHook
	cSteps               // Interp.Steps
	cEvalHits            // Interp.EvalCacheStats
	cEvalMisses          //
	cTraceEvents         // Recorder.Total
	cExpects             // expect calls the benchmark made
	cWakeups             // Profiler wakeup-to-match observations
	cMatchNs             // Profiler PhaseMatch time
	cPatHits             // pattern.CompileCacheStats
	cPatMisses           //
	cCopied              // IngestStats
	cHandedOff           //
	cIngestAllocs        //
	cLeases              //
	cReuses              //
	cOpened              // MuxPoolStats.Opened
	nCounters
)

type layerCounters [nCounters]int64

func (a layerCounters) minus(b layerCounters) layerCounters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a *layerCounters) add(d layerCounters) {
	for i := range a {
		a[i] += d[i]
	}
}

// layerLevels are a stack's gauges, read once when the timed phase ends.
type layerLevels struct {
	muxConns, queuePeak, dropped int64
}
