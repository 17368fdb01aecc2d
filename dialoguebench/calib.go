package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The host this benchmark runs on is shared: how fast it runs the same
// code drifts by up to a third between runs a few minutes apart, and
// within a run it switches between faster and slower spells that last
// from a fraction of a second to a few seconds, as neighbours come and
// go. The timing metrics are therefore reported at a reference host
// speed. Around every timed block a calibrator process runs a fixed task
// that uses none of the repository's code on every processor, and the
// block's timings are scaled by how long that task took just before and
// just after it, against the time it takes at the reference speed.
// Program changes leave the task alone, so they move the scaled figures
// as much as the measured ones; host drift moves both the task and the
// program, and mostly cancels.
const (
	// calRefWall and calRefCPU are one pass's wall time and CPU time (all
	// threads) at the reference speed: typical figures for a 2-vCPU Xeon
	// VM. They set only the scale of the reported timings.
	calRefWall = 26 * time.Millisecond
	calRefCPU  = 49 * time.Millisecond
	// calIters is one pass's work per processor, and calKeys the size of
	// its map.
	calIters = 400
	calKeys  = 1 << 16
)

// calKernel is one processor's share of a calibration pass: lookups at
// random in a string-keyed map of several megabytes, sorting and byte
// scanning over fixed data. A pass allocates nothing, so its cost
// depends only on the host; its working set, like the program's heap,
// spills out of the processor's own caches, so it slows down, as the
// program does, when neighbours contend for the shared cache.
type calKernel struct {
	keys []string
	m    map[string]int
	src  []uint32
	dst  []uint32
	text []byte
}

func newCalKernel(seed uint32) *calKernel {
	k := &calKernel{m: make(map[string]int), dst: make([]uint32, 512)}
	x := seed | 1
	next := func() uint32 { x ^= x << 13; x ^= x >> 17; x ^= x << 5; return x }
	for i := 0; i < calKeys; i++ {
		b := make([]byte, 6+next()%10)
		for j := range b {
			b[j] = 'a' + byte(next()%26)
		}
		k.keys = append(k.keys, string(b))
		k.m[string(b)] = i
	}
	for i := 0; i < 8192; i++ {
		k.src = append(k.src, next())
	}
	for i := 0; i < 16384; i++ {
		k.text = append(k.text, 'a'+byte(next()%26))
	}
	return k
}

func (k *calKernel) run(iters int) int {
	s := 0
	for i := 0; i < iters; i++ {
		for j := 0; j < 64; j++ {
			s += k.m[k.keys[((i*64+j)*7919)%len(k.keys)]]
		}
		copy(k.dst, k.src[(i*509)%(len(k.src)-len(k.dst)):])
		slices.Sort(k.dst)
		s += int(k.dst[len(k.dst)/2])
		h := uint64(14695981039346656037)
		for _, c := range k.text[(i*97)%8192:][:4096] {
			h = (h ^ uint64(c)) * 1099511628211
		}
		s += int(h & 0xff)
	}
	return s
}

// calibratorMain is the calibrator process: for each byte read from
// standard input it runs one pass on every processor and writes the
// pass's wall and CPU nanoseconds as one line; it exits at end of input.
func calibratorMain() int {
	ks := make([]*calKernel, runtime.GOMAXPROCS(0))
	for i := range ks {
		ks[i] = newCalKernel(uint32(2463534242 + 7*i))
		ks[i].run(calIters / 4) // fault the data in
	}
	sums := make([]int, len(ks)) // keeps each pass's result live
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadByte(); err != nil {
			return 0
		}
		cpu0 := processCPU()
		t0 := time.Now()
		var wg sync.WaitGroup
		for i, k := range ks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sums[i] += k.run(calIters)
			}()
		}
		wg.Wait()
		wall := time.Since(t0)
		fmt.Printf("%d %d\n", wall, processCPU()-cpu0)
	}
}

func processCPU() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// calibrator is the benchmark's handle on the calibrator process.
type calibrator struct {
	cmd      *exec.Cmd
	in       io.WriteCloser
	out      *bufio.Reader
	passes   []calPass
	closeErr error
	closed   bool
}

func startCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--calibrator")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start calibrator: %w", err)
	}
	return &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// calPass is one calibration pass's wall and CPU time.
type calPass struct{ wall, cpu time.Duration }

// speeds are the host's wall-clock and CPU speed over the given passes
// relative to the reference host: 0.8 means the task took 1.25 times as
// long as it does there.
func speeds(ps ...calPass) (wall, cpu float64) {
	var sum calPass
	for _, p := range ps {
		sum.wall += p.wall
		sum.cpu += p.cpu
	}
	n := float64(len(ps))
	return float64(calRefWall) * n / float64(sum.wall), float64(calRefCPU) * n / float64(sum.cpu)
}

// pass runs one calibration pass.
func (c *calibrator) pass() (calPass, error) {
	if _, err := c.in.Write([]byte{'r'}); err != nil {
		return calPass{}, fmt.Errorf("calibrator: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return calPass{}, fmt.Errorf("calibrator: %w", err)
	}
	f := strings.Fields(line)
	if len(f) != 2 {
		return calPass{}, fmt.Errorf("calibrator: bad line %q", line)
	}
	wall, err1 := strconv.ParseInt(f[0], 10, 64)
	cpu, err2 := strconv.ParseInt(f[1], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return calPass{}, fmt.Errorf("calibrator: %w", err)
	}
	p := calPass{time.Duration(wall), time.Duration(cpu)}
	c.passes = append(c.passes, p)
	return p, nil
}

// close ends the calibrator process at end of input and waits for it.
func (c *calibrator) close() error {
	if !c.closed {
		c.closed = true
		c.in.Close()
		c.closeErr = c.cmd.Wait()
	}
	return c.closeErr
}
