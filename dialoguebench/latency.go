package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// latStore keeps each worker's per-op latencies in a file of its own
// while the timed phase runs, so that this process's memory, which
// rss_peak_mb reads, does not grow with the number of ops a run times:
// only a fixed write buffer per worker stays in memory. The samples are
// read back after the last counter sample.
type latStore struct {
	ws    []latFile
	scale []float64 // per block: the factor its samples are scaled by
	keep  []bool    // per block: whether the timing metrics use it
}

type latFile struct {
	f      *os.File
	buf    []byte  // unwritten samples; written out when full
	n      int64   // samples recorded
	blocks []int64 // the sample count at the end of each block
	err    error
}

const latBuffer = 32 << 10

func newLatStore(dir string, workers int) (*latStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &latStore{ws: make([]latFile, workers)}
	for w := range s.ws {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("worker%d.bin", w)))
		if err != nil {
			s.close()
			return nil, err
		}
		s.ws[w] = latFile{f: f, buf: make([]byte, 0, latBuffer)}
	}
	return s, nil
}

// add records one op's latency; only worker w's goroutine calls it.
func (s *latStore) add(w int, ns int64) {
	lf := &s.ws[w]
	if len(lf.buf) == cap(lf.buf) {
		lf.flush()
	}
	lf.buf = binary.LittleEndian.AppendUint64(lf.buf, uint64(ns))
	lf.n++
}

func (lf *latFile) flush() {
	if _, err := lf.f.Write(lf.buf); err != nil && lf.err == nil {
		lf.err = err
	}
	lf.buf = lf.buf[:0]
}

// endBlock closes the block the workers just ran; its samples will be
// scaled by scale, and left out unless keep is set. It is called while
// no worker runs.
func (s *latStore) endBlock(scale float64, keep bool) {
	for w := range s.ws {
		s.ws[w].blocks = append(s.ws[w].blocks, s.ws[w].n)
	}
	s.scale = append(s.scale, scale)
	s.keep = append(s.keep, keep)
}

// sorted reads back the samples of the kept blocks (of every block when
// all is set) as measured and scaled by their block's factor, each
// sorted, and removes the files.
func (s *latStore) sorted(all bool) (measured, scaled []float64, err error) {
	defer s.close()
	for w := range s.ws {
		lf := &s.ws[w]
		lf.flush()
		if lf.err != nil {
			return nil, nil, fmt.Errorf("latency log: %w", lf.err)
		}
		b, err := os.ReadFile(lf.f.Name())
		if err != nil {
			return nil, nil, err
		}
		if int64(len(b)) != 8*lf.n {
			return nil, nil, fmt.Errorf("latency log %s: %d bytes, want %d", lf.f.Name(), len(b), 8*lf.n)
		}
		closed := int64(0)
		if k := len(lf.blocks); k > 0 {
			closed = lf.blocks[k-1]
		}
		if len(lf.blocks) != len(s.scale) || lf.n != closed {
			return nil, nil, fmt.Errorf("latency log %s: samples outside a closed block", lf.f.Name())
		}
		var i int64
		for k, end := range lf.blocks {
			if !all && !s.keep[k] {
				i = end
				continue
			}
			for ; i < end; i++ {
				v := float64(binary.LittleEndian.Uint64(b[8*i:]))
				measured = append(measured, v)
				scaled = append(scaled, s.scale[k]*v)
			}
		}
	}
	sort.Float64s(measured)
	sort.Float64s(scaled)
	return measured, scaled, nil
}

func (s *latStore) close() {
	for w := range s.ws {
		if f := s.ws[w].f; f != nil {
			f.Close()
			os.Remove(f.Name())
			s.ws[w].f = nil
		}
	}
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
